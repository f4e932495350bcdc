//! Incremental wire codecs shared by every socket path in the
//! workspace: the proxy's blocking HTTP/1.1 framing and the global-DB
//! server's length-framed message protocol.
//!
//! Both codecs follow the same rules, generic over any [`Read`] /
//! [`Write`] transport so they can be driven by real `TcpStream`s and
//! by in-memory torn-frame tests alike:
//!
//! - accumulate into a [`BytesMut`], attempt a parse after every read;
//! - distinguish "need more bytes" from a genuinely malformed stream
//!   (`InvalidData`) and from a peer that closed mid-message
//!   (`UnexpectedEof`);
//! - cap buffered bytes at a hard maximum as a sanity guard.
//!
//! # Frame format
//!
//! The DB wire protocol is deliberately simpler than HTTP: a frame is
//!
//! ```text
//! +----------------+--------+-----------------+
//! | len: u32 (BE)  | op: u8 | payload (bytes) |
//! +----------------+--------+-----------------+
//! ```
//!
//! where `len` counts the opcode byte plus the payload (so `len >= 1`),
//! and the payload is an opcode-defined body (JSON for the DB
//! protocol). `len` is bounded by [`MAX_FRAME_BYTES`]; a header that
//! announces more is rejected immediately without buffering the body.
//!
//! # Waiting for a frame over TCP
//!
//! Both ends of a DB frame exchange are blocking `TcpStream`s, and both
//! wait for the rest of a frame the same way, [`read_looking`]: poll
//! for [`LOOK_BEFORE_BLOCK`], then block. The server's connection
//! threads call it directly; clients (`RemoteDb`'s pool, the WAL
//! shipper's replica links) go through [`FrameClient`].

use crate::bytes::BytesMut;
use crate::http::{HttpParseError, Request, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Maximum HTTP message size we will buffer (sanity cap against abuse).
pub const MAX_MESSAGE_BYTES: usize = 8 * 1024 * 1024;

/// Maximum length-framed frame size (opcode + payload) we will accept.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Size of the fixed frame header (the big-endian `u32` length).
pub const FRAME_HEADER_BYTES: usize = 4;

/// How many bytes one socket `read` asks for.
const CHUNK_BYTES: usize = 16 * 1024;

/// How long a blocking TCP peer looks for the rest of a frame
/// (non-blocking `read` + `yield_now`) before it blocks in `read`. A
/// constant, not a setting: it only has to cover a loopback peer's
/// turnaround (≈10–30 µs), and a miss costs one futex wake-up, not
/// correctness. Measured on `wire_mixed` (2 cores, pinned apart, ten
/// 20 s runs each, `BENCH_history.jsonl`): with only the server looking,
/// `write_reports_per_s` went from 65.4k without the look to 94.7k
/// (+45%) and `post_rtt_us.p50` from 46 to 35 µs (the two `466f88f`
/// lines). With the client looking as well (against `50d0990`, whose
/// server already looked), one-report probes went from 48.5k to 65.9k/s
/// (×1.36), four-report posts from 161k to 205k reports/s, and the
/// traced probe round trip's p50 from 20.0 to 14.1 µs.
pub const LOOK_BEFORE_BLOCK: Duration = Duration::from_micros(50);

/// Read whatever bytes are available into `buf` (one `read` call).
pub fn read_some<R: Read>(stream: &mut R, buf: &mut BytesMut) -> io::Result<usize> {
    let mut chunk = [0u8; CHUNK_BYTES];
    let n = stream.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

/// The peer's next bytes, into `chunk` (which the caller owns and
/// reuses): look for them for [`LOOK_BEFORE_BLOCK`] with non-blocking
/// reads, then block. `Ok(0)` is end-of-stream. A closed-loop peer's
/// answer is usually already on its way, and finding it during the look
/// spares this thread a futex wake-up.
///
/// The socket is put back in blocking mode on every path out of the
/// look — bytes, end-of-stream or an error — so later `write_all`
/// calls, and the socket's read and write timeouts, behave as if it had
/// never looked. (The timeouts apply to the blocking `read` only.)
pub fn read_looking(stream: &mut TcpStream, chunk: &mut [u8]) -> io::Result<usize> {
    if stream.set_nonblocking(true).is_ok() {
        let deadline = Instant::now() + LOOK_BEFORE_BLOCK;
        let found = loop {
            match stream.read(chunk) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        break None;
                    }
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                found => break Some(found),
            }
        };
        stream.set_nonblocking(false)?;
        if let Some(found) = found {
            return found;
        }
    }
    loop {
        match stream.read(chunk) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            read => return read,
        }
    }
}

/// The client end of a blocking frame exchange over TCP: one request
/// frame out, one response frame back, on a socket opened the one way
/// every client of the DB protocol opens it.
#[derive(Debug)]
pub struct FrameClient {
    stream: TcpStream,
    /// Bytes read past the last whole frame.
    buf: BytesMut,
    /// Where reads land; allocated (and zeroed) once per connection.
    chunk: Box<[u8]>,
}

impl FrameClient {
    /// Connect to `addr` with `TCP_NODELAY` (a request is one small
    /// write that must not wait for an ack) and `timeout` on reads and
    /// writes alike: a peer that stops answering *or* stops reading
    /// fails a call instead of pinning its thread.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<FrameClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(FrameClient {
            stream,
            buf: BytesMut::new(),
            chunk: vec![0; CHUNK_BYTES].into_boxed_slice(),
        })
    }

    /// Send `frame`, then wait for the peer's answer with
    /// [`read_looking`]. `Ok(None)` when the peer closed cleanly on a
    /// frame boundary, `UnexpectedEof` mid-frame, `InvalidData` on a bad
    /// header, and a timed-out wait as the socket reports it.
    pub fn call(&mut self, frame: &Frame) -> io::Result<Option<Frame>> {
        write_frame(&mut self.stream, frame)?;
        let FrameClient { stream, buf, chunk } = self;
        next_message(buf, "frame", decode_frame, |buf| {
            let n = read_looking(stream, chunk)?;
            buf.extend_from_slice(&chunk[..n]);
            Ok(n)
        })
    }

    /// The connected socket, for its addresses and options.
    pub fn socket(&self) -> &TcpStream {
        &self.stream
    }
}

/// Read one HTTP request from the stream. `Ok(None)` means the peer
/// closed cleanly before sending a full request.
pub fn read_request<R: Read>(stream: &mut R, buf: &mut BytesMut) -> io::Result<Option<Request>> {
    read_http(stream, buf, "request", Request::parse)
}

/// Read one HTTP response from a whole stream.
pub fn read_response<R: Read>(stream: &mut R, buf: &mut BytesMut) -> io::Result<Response> {
    read_http(stream, buf, "response", Response::parse)?.ok_or_else(|| closed_mid("response"))
}

/// One HTTP message (`what` names it in errors). More than
/// [`MAX_MESSAGE_BYTES`] buffered with no whole message is
/// `InvalidData`.
fn read_http<R: Read, T>(
    stream: &mut R,
    buf: &mut BytesMut,
    what: &str,
    parse: impl Fn(&[u8]) -> Result<Option<(T, usize)>, HttpParseError>,
) -> io::Result<Option<T>> {
    let invalid = |msg| io::Error::new(io::ErrorKind::InvalidData, msg);
    let decode = |buf: &mut BytesMut| match parse(buf) {
        Ok(Some((msg, used))) => {
            let _ = buf.split_to(used);
            Ok(Some(msg))
        }
        Ok(None) if buf.len() > MAX_MESSAGE_BYTES => Err(invalid(format!("{what} too large"))),
        Ok(None) => Ok(None),
        Err(e) => Err(invalid(format!("bad {what}: {e}"))),
    };
    next_message(buf, what, decode, |buf| read_some(stream, buf))
}

/// The one blocking read loop behind every reader here: `decode` the
/// message at the front of `buf` (or fail, for a malformed or oversized
/// one), else call `fill` to append more bytes (returning how many; 0
/// at end-of-stream), until one is whole. End-of-stream is `Ok(None)`
/// with nothing buffered and `UnexpectedEof` mid-message.
fn next_message<T>(
    buf: &mut BytesMut,
    what: &str,
    mut decode: impl FnMut(&mut BytesMut) -> io::Result<Option<T>>,
    mut fill: impl FnMut(&mut BytesMut) -> io::Result<usize>,
) -> io::Result<Option<T>> {
    loop {
        if let Some(msg) = decode(buf)? {
            return Ok(Some(msg));
        }
        if fill(buf)? == 0 {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(closed_mid(what))
            };
        }
    }
}

fn closed_mid(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("connection closed mid-{what}"),
    )
}

/// Write a request.
pub fn write_request<W: Write>(stream: &mut W, req: &Request) -> io::Result<()> {
    stream.write_all(&req.encode())?;
    stream.flush()
}

/// Write a response.
pub fn write_response<W: Write>(stream: &mut W, resp: &Response) -> io::Result<()> {
    stream.write_all(&resp.encode())?;
    stream.flush()
}

/// One decoded length-framed message: an opcode byte plus its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Opcode byte (protocol-defined meaning).
    pub op: u8,
    /// Opaque payload (JSON for the DB protocol).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Build a frame.
    pub fn new(op: u8, payload: Vec<u8>) -> Frame {
        Frame { op, payload }
    }

    /// Encode to wire bytes (header + opcode + payload).
    pub fn encode(&self) -> Vec<u8> {
        let len = (self.payload.len() + 1) as u32;
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + 1 + self.payload.len());
        out.extend_from_slice(&len.to_be_bytes());
        out.push(self.op);
        out.extend_from_slice(&self.payload);
        out
    }
}

/// The byte length (header included) of the frame at the front of
/// `buf`, once all of it is buffered. Looks at the header only.
fn buffered_frame_len(buf: &[u8]) -> io::Result<Option<usize>> {
    let Some(header) = buf.first_chunk::<FRAME_HEADER_BYTES>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*header) as usize;
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length must cover the opcode byte",
        ));
    }
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    Ok(Some(FRAME_HEADER_BYTES + len).filter(|&whole| buf.len() >= whole))
}

/// Try to decode one frame from the front of `buf`.
///
/// Returns `Ok(Some(frame))` and consumes its bytes when a whole frame
/// is buffered, `Ok(None)` when more bytes are needed, and an
/// `InvalidData` error when the header is malformed (zero length or a
/// length over [`MAX_FRAME_BYTES`]). Oversized frames are rejected from
/// the header alone, before any body bytes arrive.
pub fn decode_frame(buf: &mut BytesMut) -> io::Result<Option<Frame>> {
    let Some(len) = buffered_frame_len(buf)? else {
        return Ok(None);
    };
    let whole = buf.split_to(len);
    let body = &whole[FRAME_HEADER_BYTES..];
    Ok(Some(Frame {
        op: body[0],
        payload: body[1..].to_vec(),
    }))
}

/// Write one frame.
pub fn write_frame<W: Write>(stream: &mut W, frame: &Frame) -> io::Result<()> {
    stream.write_all(&frame.encode())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_through_buffer() {
        let f = Frame::new(7, b"{\"k\":1}".to_vec());
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&f.encode());
        let got = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(got, f);
        assert!(buf.is_empty());
    }

    #[test]
    fn empty_payload_frame_is_valid() {
        let f = Frame::new(1, Vec::new());
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&f.encode());
        assert_eq!(decode_frame(&mut buf).unwrap().unwrap(), f);
    }

    #[test]
    fn zero_length_header_is_invalid() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(
            decode_frame(&mut buf).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn oversized_header_is_rejected_before_body() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        assert_eq!(
            decode_frame(&mut buf).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn a_partial_frame_waits_unconsumed() {
        let wire = Frame::new(3, b"body".to_vec()).encode();
        for cut in 0..wire.len() {
            let mut buf = BytesMut::new();
            buf.extend_from_slice(&wire[..cut]);
            assert_eq!(decode_frame(&mut buf).unwrap(), None, "cut at {cut}");
            assert_eq!(buf.len(), cut, "cut at {cut}");
        }
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let a = Frame::new(1, b"first".to_vec());
        let b = Frame::new(2, b"second".to_vec());
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&a.encode());
        buf.extend_from_slice(&b.encode());
        assert_eq!(decode_frame(&mut buf).unwrap().unwrap(), a);
        assert_eq!(decode_frame(&mut buf).unwrap().unwrap(), b);
        assert_eq!(decode_frame(&mut buf).unwrap(), None);
    }
}
