//! DNS-over-stream framing (RFC 1035 §4.2.2).
//!
//! Over TCP (and any other byte-stream transport) each DNS message is
//! preceded by a two-byte big-endian length field. These helpers are
//! the one place the repo encodes and decodes that frame, shared by the
//! serving front end (`ede-server`), its loopback client, and tests.
//!
//! Two shapes are provided:
//!
//! * [`frame`] — prefix an encoded message with its length, for writers
//!   that assemble the whole frame before `write`.
//! * [`FrameReader`] — an incremental accumulator for readers that
//!   receive bytes in arbitrary chunks (short reads, timeouts), with a
//!   configurable size cap so a hostile peer cannot force a 64 KiB
//!   allocation per connection.

use crate::error::WireError;

/// Hard upper bound of a stream frame: the length prefix is 16 bits.
pub const MAX_FRAME_LEN: usize = u16::MAX as usize;

/// Prefix `msg` with its two-byte big-endian length, yielding the exact
/// byte sequence to write on a stream transport.
///
/// Fails with [`WireError::FieldOverflow`] when `msg` exceeds
/// [`MAX_FRAME_LEN`].
///
/// ```
/// let framed = ede_wire::stream::frame(&[0xAB, 0xCD]).unwrap();
/// assert_eq!(framed, vec![0x00, 0x02, 0xAB, 0xCD]);
/// ```
pub fn frame(msg: &[u8]) -> Result<Vec<u8>, WireError> {
    let len = u16::try_from(msg.len()).map_err(|_| WireError::FieldOverflow("stream frame"))?;
    let mut out = Vec::with_capacity(msg.len() + 2);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(msg);
    Ok(out)
}

/// Incremental decoder for length-prefixed stream frames.
///
/// Feed raw bytes as they arrive with [`push`](FrameReader::push); take
/// completed frames with [`next_frame`](FrameReader::next_frame), or
/// borrowed in place with [`with_frame`](FrameReader::with_frame). The
/// reader handles frames split across arbitrarily many reads and
/// multiple frames arriving in one read (pipelined queries).
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Where the pending frame's prefix starts: what is before it has
    /// been consumed and waits for the next `push` to be dropped.
    pos: usize,
    max_len: usize,
}

impl FrameReader {
    /// A reader refusing frames longer than `max_len` bytes (clamped to
    /// [`MAX_FRAME_LEN`]).
    pub fn new(max_len: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            pos: 0,
            max_len: max_len.clamp(1, MAX_FRAME_LEN),
        }
    }

    /// Append freshly-read bytes to the accumulator.
    ///
    /// Fails with [`WireError::FieldOverflow`] as soon as the pending
    /// frame's declared length exceeds this reader's cap — the caller
    /// should drop the connection, since the stream can no longer be
    /// re-synchronized.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        // Compact once the consumed prefix outweighs what is left: fewer
        // bytes move than are dropped, and a reader that was drained (the
        // usual case) moves none.
        if self.pos > self.buf.len() - self.pos {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
        if let Some(declared) = self.declared_len() {
            if declared > self.max_len {
                return Err(WireError::FieldOverflow("stream frame"));
            }
        }
        Ok(())
    }

    /// The length the pending frame's prefix declares, once both prefix
    /// bytes have arrived.
    fn declared_len(&self) -> Option<usize> {
        let prefix = self.buf.get(self.pos..self.pos + 2)?;
        Some(usize::from(u16::from_be_bytes([prefix[0], prefix[1]])))
    }

    /// Hand the next complete frame's payload to `f`, borrowed from the
    /// accumulator, then remove it; `None` if no frame has fully arrived.
    /// An over-cap frame is never handed out, even when all of it came in
    /// behind the frames before it: the next `push` refuses it.
    pub fn with_frame<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let declared = self.declared_len().filter(|&n| n <= self.max_len)?;
        let seen = f(self.buf.get(self.pos + 2..self.pos + 2 + declared)?);
        self.pos += 2 + declared;
        Some(seen)
    }

    /// Remove and return the next complete frame's payload, if one has
    /// fully arrived.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        self.with_frame(<[u8]>::to_vec)
    }

    /// True when partially-received bytes are pending (an incomplete
    /// frame): closing now would cut a request mid-flight.
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let msg = vec![1u8, 2, 3, 4, 5];
        let framed = frame(&msg).unwrap();
        assert_eq!(framed.len(), msg.len() + 2);
        assert_eq!(&framed[..2], &[0, 5]);

        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        reader.push(&framed).unwrap();
        assert_eq!(reader.next_frame().unwrap(), msg);
        assert!(!reader.has_partial());
        assert!(reader.next_frame().is_none());
    }

    #[test]
    fn split_and_pipelined_frames() {
        let a = frame(&[0xAA; 3]).unwrap();
        let b = frame(&[0xBB; 700]).unwrap();
        let mut joined = a.clone();
        joined.extend_from_slice(&b);

        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        // Deliver one byte at a time: frames must still reassemble.
        for chunk in joined.chunks(1) {
            reader.push(chunk).unwrap();
        }
        assert_eq!(reader.next_frame().unwrap(), vec![0xAA; 3]);
        assert_eq!(reader.next_frame().unwrap(), vec![0xBB; 700]);
        assert!(reader.next_frame().is_none());
    }

    #[test]
    fn oversized_declared_length_rejected() {
        let mut reader = FrameReader::new(512);
        let err = reader.push(&[0xFF, 0xFF]).unwrap_err();
        assert_eq!(err, WireError::FieldOverflow("stream frame"));
    }

    #[test]
    fn empty_frame_is_legal_framing() {
        // A zero-length frame is framing-valid (the DNS layer above
        // rejects it as too short for a header).
        let framed = frame(&[]).unwrap();
        let mut reader = FrameReader::new(16);
        reader.push(&framed).unwrap();
        assert_eq!(reader.next_frame().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn frame_too_long_rejected() {
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert_eq!(
            frame(&big).unwrap_err(),
            WireError::FieldOverflow("stream frame")
        );
    }

    #[test]
    fn partial_frame_reported() {
        let mut reader = FrameReader::new(64);
        reader.push(&[0x00]).unwrap();
        assert!(reader.has_partial());
        assert!(reader.next_frame().is_none());
        reader.push(&[0x02, 0x01]).unwrap();
        assert!(reader.next_frame().is_none(), "one payload byte missing");
        reader.push(&[0x02]).unwrap();
        assert_eq!(reader.next_frame().unwrap(), vec![0x01, 0x02]);
    }
}
