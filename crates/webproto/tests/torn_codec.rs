//! Torn-frame reassembly tests for both wire codecs.
//!
//! TCP is a byte stream: a message written in one `write_all` can
//! arrive split at *any* byte boundary, across any number of reads.
//! These tests drive `read_request` / `read_response`, and
//! `decode_frame` over each read, through an in-memory reader that
//! serves a wire image in chunks — every possible 2-way split, plus
//! byte-at-a-time — and assert the reassembled message is identical to
//! the original. They also pin the failure contracts: oversized or
//! malformed messages are `InvalidData`, closing mid-message is
//! `UnexpectedEof` (a frame prefix never decodes), and closing on a
//! message boundary is a clean `Ok(None)` (requests only; a response
//! must always arrive). `FrameClient::call`'s end-of-stream outcomes are
//! `look_before_block.rs`'s, over real sockets.

use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{
    decode_frame, read_request, read_response, read_some, Frame, MAX_MESSAGE_BYTES,
};
use csaw_webproto::http::{Request, Response};
use csaw_webproto::url::Url;
use std::io::{self, Read};

/// Serves a byte image split into predetermined chunks: each `read`
/// call yields at most the remainder of the current chunk, then EOF —
/// exactly how a torn TCP stream presents to a blocking reader.
struct ChunkedReader {
    chunks: Vec<Vec<u8>>,
    next: usize,
}

impl ChunkedReader {
    fn new(chunks: Vec<Vec<u8>>) -> ChunkedReader {
        ChunkedReader { chunks, next: 0 }
    }

    /// Split `image` in two at byte `i`.
    fn split_at(image: &[u8], i: usize) -> ChunkedReader {
        ChunkedReader::new(vec![image[..i].to_vec(), image[i..].to_vec()])
    }

    /// One byte per read call.
    fn byte_at_a_time(image: &[u8]) -> ChunkedReader {
        ChunkedReader::new(image.iter().map(|b| vec![*b]).collect())
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.next < self.chunks.len() && self.chunks[self.next].is_empty() {
            self.next += 1;
        }
        if self.next >= self.chunks.len() {
            return Ok(0);
        }
        let chunk = &mut self.chunks[self.next];
        let n = chunk.len().min(out.len());
        out[..n].copy_from_slice(&chunk[..n]);
        chunk.drain(..n);
        if chunk.is_empty() {
            self.next += 1;
        }
        Ok(n)
    }
}

fn sample_request() -> Request {
    let mut req = Request::get(&Url::parse("http://www.example.com/watch?v=1").unwrap());
    req.headers.set("X-Torn-Test", "yes");
    req
}

fn sample_response() -> Response {
    Response::ok_html("<html><body>a genuine page with some words in it</body></html>".as_bytes())
}

/// The next frame: `decode_frame` after each read, `None` once the
/// reader is exhausted (whatever is left stays in `buf`).
fn next_frame(r: &mut ChunkedReader, buf: &mut BytesMut) -> io::Result<Option<Frame>> {
    loop {
        if let Some(frame) = decode_frame(buf)? {
            return Ok(Some(frame));
        }
        if read_some(r, buf)? == 0 {
            return Ok(None);
        }
    }
}

fn sample_frame() -> Frame {
    Frame::new(0x42, br#"{"client":"00000000deadbeef","n":3}"#.to_vec())
}

#[test]
fn request_reassembles_across_every_two_way_split() {
    let req = sample_request();
    let image = req.encode();
    for i in 0..=image.len() {
        let mut r = ChunkedReader::split_at(&image, i);
        let mut buf = BytesMut::new();
        let got = read_request(&mut r, &mut buf)
            .unwrap_or_else(|e| panic!("split at {i}: {e}"))
            .unwrap_or_else(|| panic!("split at {i}: no request"));
        assert_eq!(got, req, "split at byte {i}");
        assert!(buf.is_empty(), "split at {i} left residue");
    }
}

#[test]
fn response_reassembles_across_every_two_way_split() {
    let resp = sample_response();
    let image = resp.encode();
    for i in 0..=image.len() {
        let mut r = ChunkedReader::split_at(&image, i);
        let mut buf = BytesMut::new();
        let got = read_response(&mut r, &mut buf).unwrap_or_else(|e| panic!("split at {i}: {e}"));
        assert_eq!(got, resp, "split at byte {i}");
    }
}

#[test]
fn frame_reassembles_across_every_two_way_split() {
    let frame = sample_frame();
    let image = frame.encode();
    for i in 0..=image.len() {
        let mut r = ChunkedReader::split_at(&image, i);
        let mut buf = BytesMut::new();
        let got = next_frame(&mut r, &mut buf)
            .unwrap_or_else(|e| panic!("split at {i}: {e}"))
            .unwrap_or_else(|| panic!("split at {i}: no frame"));
        assert_eq!(got, frame, "split at byte {i}");
        assert!(buf.is_empty(), "split at {i} left residue");
    }
}

#[test]
fn messages_reassemble_byte_at_a_time() {
    let req = sample_request();
    let mut r = ChunkedReader::byte_at_a_time(&req.encode());
    let mut buf = BytesMut::new();
    assert_eq!(read_request(&mut r, &mut buf).unwrap().unwrap(), req);

    let resp = sample_response();
    let mut r = ChunkedReader::byte_at_a_time(&resp.encode());
    let mut buf = BytesMut::new();
    assert_eq!(read_response(&mut r, &mut buf).unwrap(), resp);

    let frame = sample_frame();
    let mut r = ChunkedReader::byte_at_a_time(&frame.encode());
    let mut buf = BytesMut::new();
    assert_eq!(next_frame(&mut r, &mut buf).unwrap().unwrap(), frame);
}

#[test]
fn back_to_back_frames_survive_an_arbitrary_tear() {
    // Two frames in one stream, torn in the middle of the *second*
    // frame's header: the first decodes, the second reassembles.
    let a = Frame::new(1, b"first".to_vec());
    let b = Frame::new(2, b"second frame payload".to_vec());
    let mut image = a.encode();
    let boundary = image.len();
    image.extend_from_slice(&b.encode());
    for i in [boundary + 1, boundary + 2, boundary + 3] {
        let mut r = ChunkedReader::split_at(&image, i);
        let mut buf = BytesMut::new();
        assert_eq!(next_frame(&mut r, &mut buf).unwrap().unwrap(), a);
        assert_eq!(next_frame(&mut r, &mut buf).unwrap().unwrap(), b);
        assert_eq!(next_frame(&mut r, &mut buf).unwrap(), None, "clean EOF");
        assert!(buf.is_empty());
    }
}

#[test]
fn clean_close_on_a_message_boundary_is_none() {
    // An empty stream: the peer connected and closed without sending.
    let mut r = ChunkedReader::new(vec![]);
    let mut buf = BytesMut::new();
    assert!(read_request(&mut r, &mut buf).unwrap().is_none());
}

#[test]
fn close_mid_message_is_unexpected_eof() {
    // Every proper prefix of a request or response must yield
    // UnexpectedEof — never a phantom message, never a clean None — and
    // no proper prefix of a frame decodes.
    let req_image = sample_request().encode();
    for i in 1..req_image.len() {
        let mut r = ChunkedReader::new(vec![req_image[..i].to_vec()]);
        let mut buf = BytesMut::new();
        let err = read_request(&mut r, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "prefix {i}");
    }
    let frame_image = sample_frame().encode();
    for i in 1..frame_image.len() {
        let mut r = ChunkedReader::new(vec![frame_image[..i].to_vec()]);
        let mut buf = BytesMut::new();
        assert_eq!(next_frame(&mut r, &mut buf).unwrap(), None, "prefix {i}");
        assert_eq!(buf.len(), i, "prefix {i}");
    }
    let resp_image = sample_response().encode();
    let mut r = ChunkedReader::new(vec![resp_image[..resp_image.len() - 1].to_vec()]);
    let mut buf = BytesMut::new();
    let err = read_response(&mut r, &mut buf).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
}

#[test]
fn oversized_request_is_rejected_as_invalid_data() {
    // Headers that never terminate: once the buffered bytes cross the
    // cap the reader must bail with InvalidData rather than buffer
    // forever. (The over-cap prefix is pre-buffered so the test doesn't
    // re-scan 8 MiB of headers on every 16 KiB read.)
    let mut image = b"GET / HTTP/1.1\r\nHost: www.example.com\r\n".to_vec();
    let filler = b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    while image.len() <= MAX_MESSAGE_BYTES {
        image.extend_from_slice(filler);
    }
    let mut buf = BytesMut::new();
    buf.extend_from_slice(&image);
    let mut r = ChunkedReader::new(vec![filler.to_vec()]);
    let err = read_request(&mut r, &mut buf).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn non_http_request_line_is_rejected_as_invalid_data() {
    let mut r = ChunkedReader::new(vec![b"BREW /pot HTCPCP/1.0\r\n\r\n".to_vec()]);
    let mut buf = BytesMut::new();
    let err = read_request(&mut r, &mut buf).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn oversized_frame_header_is_rejected_even_when_torn() {
    // A header announcing an over-cap frame is rejected from the header
    // alone — including when the header itself arrives byte by byte.
    let image = ((csaw_webproto::codec::MAX_FRAME_BYTES as u32) + 1).to_be_bytes();
    let mut r = ChunkedReader::byte_at_a_time(&image);
    let mut buf = BytesMut::new();
    let err = next_frame(&mut r, &mut buf).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn torn_header_does_not_consume_prematurely() {
    // With only part of the header buffered, decode_frame must leave
    // the buffer untouched and report "need more".
    let image = sample_frame().encode();
    for i in 0..4 {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&image[..i]);
        assert!(
            decode_frame(&mut buf).unwrap().is_none(),
            "header prefix {i}"
        );
        assert_eq!(buf.len(), i, "header prefix {i} was consumed");
    }
}
