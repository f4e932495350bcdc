//! Minimal byte-buffer types modelled on the `bytes` crate's API
//! surface, implemented in-tree so the workspace stays hermetic.
//!
//! [`Bytes`] is an immutable, cheaply-cloneable buffer (shared
//! allocation); [`BytesMut`] is a growable accumulation buffer with the
//! `split_to` framing primitive the proxy codec builds on.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Cloning shares the
/// allocation, so passing response bodies around is O(1).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes { data: data.into() }
    }

    /// Wrap a static slice (copies; the sharing is in the `Arc`).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { data: v.into() }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        Bytes::from(b.buf)
    }
}

/// A growable accumulation buffer for incremental protocol parsing.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append bytes.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Split off and return the first `n` bytes; `self` keeps the rest.
    /// Panics if `n > len`.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        let rest = self.buf.split_off(n);
        BytesMut {
            buf: std::mem::replace(&mut self.buf, rest),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_share_on_clone() {
        let a = Bytes::copy_from_slice(b"hello");
        let b = a.clone();
        assert_eq!(&a[..], b"hello");
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn conversions() {
        assert_eq!(&Bytes::from("hi")[..], b"hi");
        assert_eq!(&Bytes::from(String::from("hi"))[..], b"hi");
        assert_eq!(&Bytes::from(vec![1u8, 2])[..], &[1, 2]);
        assert_eq!(&Bytes::from_static(b"s")[..], b"s");
    }

    #[test]
    fn split_to_frames() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"abcdef");
        let head = m.split_to(4);
        assert_eq!(&head[..], b"abcd");
        assert_eq!(&m[..], b"ef");
        m.extend_from_slice(b"gh");
        assert_eq!(&m[..], b"efgh");
    }
}
