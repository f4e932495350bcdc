//! The looking reader over real loopback sockets.
//!
//! `FrameClient::call` waits for its answer with `read_looking`: a
//! non-blocking look for `LOOK_BEFORE_BLOCK`, then a blocking `read`.
//! Whichever of the two finds the bytes, the caller must see exactly
//! the same outcome — a whole frame, `Ok(None)` on a clean close,
//! `UnexpectedEof` mid-frame, `InvalidData` on a bad header — and a
//! socket that blocks again, so its timeouts and later
//! `write_all` calls behave as if nothing had looked.

use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{
    decode_frame, read_some, write_frame, Frame, FrameClient, LOOK_BEFORE_BLOCK,
};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Long enough that a broken test fails instead of hanging.
const TIMEOUT: Duration = Duration::from_secs(5);

/// Far past the look: an answer this late is read by the blocking
/// fallback.
const LATE: Duration = Duration::from_millis(2);

/// A client connected to a peer thread running `script` on the
/// accepted socket.
fn client_of(script: impl FnOnce(TcpStream) + Send + 'static) -> (FrameClient, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || script(listener.accept().unwrap().0));
    (FrameClient::connect(addr, TIMEOUT).unwrap(), peer)
}

/// Read the request the client sent.
fn request(stream: &mut TcpStream) -> Frame {
    let mut buf = BytesMut::new();
    loop {
        if let Some(frame) = decode_frame(&mut buf).unwrap() {
            return frame;
        }
        assert!(read_some(stream, &mut buf).unwrap() > 0, "client closed");
    }
}

fn answer() -> Frame {
    Frame::new(0x82, b"{\"accepted\":1}".to_vec())
}

/// A read on a quiet socket waits out its read timeout when the socket
/// blocks; a non-blocking socket returns `WouldBlock` at once.
fn assert_blocking(socket: &TcpStream) {
    let wait = Duration::from_millis(30);
    socket.set_read_timeout(Some(wait)).unwrap();
    let (mut reader, start) = (socket, Instant::now());
    let read = reader.read(&mut [0u8; 1]);
    let waited = start.elapsed();
    socket.set_read_timeout(Some(TIMEOUT)).unwrap();
    assert!(
        matches!(&read, Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)),
        "a quiet socket has nothing to read: {read:?}"
    );
    assert!(
        waited >= wait - Duration::from_millis(5),
        "returned after {waited:?}: not blocking"
    );
}

#[test]
fn a_reply_during_the_look_is_read() {
    let (hold, held) = std::sync::mpsc::channel::<()>();
    let (mut client, peer) = client_of(move |mut s| {
        request(&mut s);
        write_frame(&mut s, &answer()).unwrap();
        let _ = held.recv();
    });
    assert_eq!(
        client.call(&Frame::new(1, Vec::new())).unwrap(),
        Some(answer())
    );
    assert_blocking(client.socket());
    drop(hold);
    peer.join().unwrap();
}

#[test]
fn a_reply_after_the_look_is_read_by_the_blocking_fallback() {
    let (hold, held) = std::sync::mpsc::channel::<()>();
    let (mut client, peer) = client_of(move |mut s| {
        request(&mut s);
        std::thread::sleep(LATE);
        write_frame(&mut s, &answer()).unwrap();
        let _ = held.recv();
    });
    let start = Instant::now();
    assert_eq!(
        client.call(&Frame::new(1, Vec::new())).unwrap(),
        Some(answer())
    );
    assert!(start.elapsed() >= LATE && LATE > LOOK_BEFORE_BLOCK * 10);
    assert_blocking(client.socket());
    drop(hold);
    peer.join().unwrap();
}

#[test]
fn a_frame_split_across_the_look_boundary_reassembles() {
    let big = Frame::new(0x83, vec![b'x'; 40_000]);
    let wire = big.encode();
    let (mut client, peer) = client_of(move |mut s| {
        request(&mut s);
        for half in [&wire[..3], &wire[3..20_000], &wire[20_000..]] {
            s.write_all(half).unwrap();
            std::thread::sleep(LATE);
        }
    });
    assert_eq!(client.call(&Frame::new(3, Vec::new())).unwrap(), Some(big));
    peer.join().unwrap();
}

#[test]
fn a_clean_close_is_none() {
    let (mut client, peer) = client_of(|mut s| {
        request(&mut s);
    });
    assert_eq!(client.call(&Frame::new(1, Vec::new())).unwrap(), None);
    peer.join().unwrap();
}

#[test]
fn a_close_mid_frame_is_unexpected_eof() {
    let (mut client, peer) = client_of(|mut s| {
        request(&mut s);
        s.write_all(&answer().encode()[..7]).unwrap();
    });
    let err = client.call(&Frame::new(1, Vec::new())).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    peer.join().unwrap();
}

#[test]
fn a_bad_header_is_invalid_data() {
    let (hold, held) = std::sync::mpsc::channel::<()>();
    let (mut client, peer) = client_of(move |mut s| {
        request(&mut s);
        s.write_all(&[0, 0, 0, 0, 0x82]).unwrap();
        let _ = held.recv();
    });
    let err = client.call(&Frame::new(1, Vec::new())).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert_blocking(client.socket());
    drop(hold);
    peer.join().unwrap();
}

/// A socket left non-blocking would fail this write with `WouldBlock`
/// as soon as the slow reader's buffers fill. Loopback buffers absorb a
/// few MiB for a reader that has not started, so the write is larger.
#[test]
fn after_a_look_a_large_write_to_a_slow_reader_completes() {
    const BULK: usize = 16 << 20;
    let (mut client, peer) = client_of(|mut s| {
        request(&mut s);
        write_frame(&mut s, &answer()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let (mut got, mut chunk) = (0, vec![0u8; 256 * 1024]);
        while got < BULK {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "closed after {got} bytes");
            got += n;
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    assert_eq!(
        client.call(&Frame::new(1, Vec::new())).unwrap(),
        Some(answer())
    );
    let mut writer = client.socket();
    writer.write_all(&vec![7u8; BULK]).unwrap();
    peer.join().unwrap();
}
