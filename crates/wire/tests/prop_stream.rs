//! Randomized stream-framing tests: whatever the frame lengths and
//! however the bytes are cut into reads, a [`FrameReader`] hands back the
//! frames that went in, says truthfully whether bytes are pending, and
//! refuses an over-cap frame as soon as its prefix is at the head. Driven
//! by a fixed-seed SplitMix64, like the other `prop_*` files.

use ede_wire::stream::{frame, FrameReader};
use ede_wire::WireError;
use std::collections::VecDeque;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }
}

/// Frames of random lengths in `0..=cap`, cap included and zero included.
fn arb_frames(rng: &mut Rng, cap: usize) -> Vec<Vec<u8>> {
    (0..1 + rng.below(24))
        .map(|_| {
            let len = match rng.below(8) {
                0 => 0,
                1 => cap,
                _ => rng.below(cap + 1),
            };
            (0..len).map(|_| rng.next() as u8).collect()
        })
        .collect()
}

/// Cut `stream` into chunks: one byte at a time, or random sizes up to
/// `widest`.
fn arb_chunks<'a>(rng: &mut Rng, stream: &'a [u8], widest: usize) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at((1 + rng.below(widest)).min(rest.len()));
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

#[test]
fn frames_out_are_frames_in_under_any_chunking() {
    let mut rng = Rng(0x0008_5eed);
    for case in 0..256 {
        let cap = [1, 16, 300, 4096][case % 4];
        let frames = arb_frames(&mut rng, cap);
        let stream: Vec<u8> = frames.iter().flat_map(|f| frame(f).unwrap()).collect();
        let widest = [1, 3, 64, 2 * cap + 8][rng.below(4)];

        let mut reader = FrameReader::new(cap);
        let mut expected: VecDeque<&Vec<u8>> = frames.iter().collect();
        let (mut pushed, mut taken) = (0, 0);
        for chunk in arb_chunks(&mut rng, &stream, widest) {
            reader.push(chunk).unwrap();
            pushed += chunk.len();
            assert_eq!(reader.has_partial(), pushed > taken, "case {case}");
            // Leave some complete frames buffered across pushes, so the
            // cursor and the compaction meet every backlog shape; take
            // them borrowed or owned.
            while !expected.is_empty() && rng.below(4) != 0 {
                let want = expected[0];
                let got = if rng.below(2) == 0 {
                    reader.with_frame(|frame| frame == want.as_slice())
                } else {
                    reader.next_frame().map(|frame| &frame == want)
                };
                if pushed < taken + 2 + want.len() {
                    assert_eq!(got, None, "case {case}: a frame before its last byte");
                    break;
                }
                assert_eq!(got, Some(true), "case {case}");
                expected.pop_front();
                taken += 2 + want.len();
                assert_eq!(reader.has_partial(), pushed > taken, "case {case}");
            }
        }
        while let Some(got) = reader.next_frame() {
            assert_eq!(Some(&got), expected.pop_front(), "case {case}");
        }
        assert!(expected.is_empty(), "case {case}: frames withheld");
        assert!(!reader.has_partial(), "case {case}");
        assert_eq!(reader.with_frame(|_| ()), None);
    }
}

/// An over-cap declaration behind good frames: refused by the `push`
/// that completes its prefix if it is already at the head, and otherwise
/// no later than the first `push` after the frames before it are taken.
#[test]
fn over_cap_declaration_is_refused_once_it_heads_the_stream() {
    let mut rng = Rng(0x0009_5eed);
    let overflow = Err(WireError::FieldOverflow("stream frame"));
    for case in 0..256 {
        let cap = [1, 16, 300][case % 3];
        let frames = arb_frames(&mut rng, cap);
        let mut stream: Vec<u8> = frames.iter().flat_map(|f| frame(f).unwrap()).collect();
        let good = stream.len();
        let declared = cap + 1 + rng.below(usize::from(u16::MAX) - cap);
        stream.extend_from_slice(&(declared as u16).to_be_bytes());
        stream.extend_from_slice(&[0xEE; 5]);

        let mut reader = FrameReader::new(cap);
        let mut refused = false;
        let (mut pushed, mut taken) = (0, 0);
        let widest = [1, 5, 700][rng.below(3)];
        for chunk in arb_chunks(&mut rng, &stream, widest) {
            // The bad prefix is at the head and whole once this chunk is in.
            let due = taken == good && pushed + chunk.len() >= good + 2;
            let result = reader.push(chunk);
            pushed += chunk.len();
            assert_eq!(
                result,
                if due { overflow.clone() } else { Ok(()) },
                "case {case}"
            );
            if due {
                refused = true;
                break;
            }
            while let Some(got) = reader.next_frame() {
                taken += 2 + got.len();
            }
        }
        if !refused {
            // Everything was pushed while good frames were still queued in
            // front: the next push, even an empty one, refuses.
            assert_eq!(taken, good, "case {case}");
            assert_eq!(reader.push(&[]), overflow, "case {case}");
        }
        let handed_out = reader.with_frame(|_| ());
        assert_eq!(handed_out, None, "case {case}: over-cap frame handed out");
    }
}
