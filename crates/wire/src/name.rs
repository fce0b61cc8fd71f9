//! Domain names: parsing, wire codec with compression, canonical ordering.
//!
//! Names are stored in canonical (lowercased) form. DNS comparisons are
//! case-insensitive everywhere this reproduction needs them, and DNSSEC
//! canonical form (RFC 4034 §6.2) lowercases names before hashing and
//! signing, so normalizing at construction removes a whole class of
//! case-handling bugs at zero modeling cost.

use crate::error::WireError;
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Maximum length of one label in octets.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire (labels + length octets + root).
pub const MAX_NAME_LEN: usize = 255;
/// Longest wire form a [`Name`] holds inside itself, with no heap block.
pub const MAX_INLINE_LEN: usize = 22;
/// Most labels a name of [`MAX_NAME_LEN`] octets can hold.
const MAX_LABELS: usize = MAX_NAME_LEN / 2;

/// A fully-qualified domain name.
///
/// The root name has zero labels. Labels are arbitrary byte strings
/// (lowercased ASCII at rest), ordered leaf-first.
///
/// A name *is* its canonical wire form (RFC 4034 §6.2: lowercase, no
/// compression, root octet included). A form of at most
/// [`MAX_INLINE_LEN`] octets sits inside the `Name`, so a short name
/// owns no heap block and a clone is a copy; a longer one is held in one
/// shared heap block, `buf[start..]`, so a clone is a refcount bump. An
/// ancestor ([`Name::parent`], [`Name::suffix`]) of a long name is the
/// same block with a larger `start`, or an inline copy once it fits, so
/// walking up a name allocates nothing. Hashing, signing and NSEC3 code
/// borrow the wire form ([`Name::as_wire`]) instead of building it, and
/// equality, hashing and ordering compare those bytes, never the form.
/// Names are immutable after construction, so the sharing is never
/// observable.
#[derive(Clone)]
pub struct Name(Repr);

/// Where a name's wire form lives. Canonical: `Inline` exactly when the
/// form has at most [`MAX_INLINE_LEN`] octets. Either way the form is a
/// well-formed uncompressed lowercase name of at most [`MAX_NAME_LEN`]
/// octets ending in the root octet.
#[derive(Clone)]
enum Repr {
    /// The form is `bytes[..len]`.
    Inline {
        len: u8,
        bytes: [u8; MAX_INLINE_LEN],
    },
    /// The form is `buf[start..]`: this name's, or a descendant's it was
    /// cut from.
    Shared { buf: Arc<[u8]>, start: u8 },
}

/// Wire form under construction: one stack buffer, so that every
/// constructor allocates at most once (the final `Arc`), and never for
/// a name of at most [`MAX_INLINE_LEN`] octets.
struct Builder {
    buf: [u8; MAX_NAME_LEN],
    len: usize,
}

impl Builder {
    fn new() -> Self {
        Builder {
            buf: [0; MAX_NAME_LEN],
            len: 0,
        }
    }

    /// Append one label, lowercased. Leaves room for the root octet.
    fn push(&mut self, label: &[u8]) -> Result<(), WireError> {
        if label.is_empty() || label.len() > MAX_LABEL_LEN {
            return Err(WireError::BadLabel(
                String::from_utf8_lossy(label).into_owned(),
            ));
        }
        let end = self.len + 1 + label.len();
        if end + 1 > MAX_NAME_LEN {
            return Err(WireError::NameTooLong);
        }
        self.buf[self.len] = label.len() as u8;
        let dst = &mut self.buf[self.len + 1..end];
        dst.copy_from_slice(label);
        dst.make_ascii_lowercase();
        self.len = end;
        Ok(())
    }

    /// Append an already-canonical wire name (root octet included).
    fn finish_with(mut self, tail: &[u8]) -> Result<Name, WireError> {
        let end = self.len + tail.len();
        if end > MAX_NAME_LEN {
            return Err(WireError::NameTooLong);
        }
        self.buf[self.len..end].copy_from_slice(tail);
        Ok(Name::from_canonical(&self.buf[..end]))
    }

    fn finish(self) -> Name {
        if self.len == 0 {
            return Name::root();
        }
        self.finish_with(&[0]).expect("push left room for the root")
    }
}

/// Iterator over a name's labels, leaf-first.
#[derive(Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let len = usize::from(self.rest[0]);
        if len == 0 {
            return None;
        }
        let (label, rest) = self.rest[1..].split_at(len);
        self.rest = rest;
        Some(label)
    }
}

impl Name {
    /// The root name `.`.
    pub fn root() -> Self {
        Name::inline(&[0])
    }

    /// The name whose wire form is `wire`, which is canonical: well
    /// formed, lowercase, uncompressed, at most [`MAX_NAME_LEN`] octets.
    pub(crate) fn from_canonical(wire: &[u8]) -> Self {
        if wire.len() <= MAX_INLINE_LEN {
            Name::inline(wire)
        } else {
            Name(Repr::Shared {
                buf: Arc::from(wire),
                start: 0,
            })
        }
    }

    /// A name held inline; `wire` is canonical and fits.
    fn inline(wire: &[u8]) -> Self {
        let mut bytes = [0; MAX_INLINE_LEN];
        bytes[..wire.len()].copy_from_slice(wire);
        Name(Repr::Inline {
            len: wire.len() as u8,
            bytes,
        })
    }

    /// The ancestor whose wire form starts `at` octets into this one's:
    /// inline if it fits, else the same shared block.
    fn tail(&self, at: usize) -> Self {
        match &self.0 {
            Repr::Shared { buf, start } if self.wire_len() - at > MAX_INLINE_LEN => {
                Name(Repr::Shared {
                    buf: Arc::clone(buf),
                    start: start + at as u8,
                })
            }
            _ => Name::inline(&self.as_wire()[at..]),
        }
    }

    /// Parse a dotted textual name. Accepts an optional trailing dot; all
    /// names are treated as fully qualified. `"."` and `""` both give the
    /// root. Reads the escapes [`Display`](fmt::Display) writes (RFC 1035
    /// §5.1): `\DDD` is the octet with decimal value `DDD`, and `\X`
    /// for any other `X` is `X` itself, so `\.` is a dot inside a label.
    pub fn parse(text: &str) -> Result<Self, WireError> {
        let mut b = Builder::new();
        if text == "." {
            return Ok(b.finish());
        }
        let bad = || WireError::BadLabel(text.to_string());
        let (mut label, mut len) = ([0u8; MAX_LABEL_LEN + 1], 0);
        let mut octets = text.bytes();
        while let Some(octet) = octets.next() {
            let octet = match octet {
                b'.' => {
                    b.push(&label[..len])?;
                    len = 0;
                    continue;
                }
                b'\\' => match octets.next().ok_or_else(bad)? {
                    first @ b'0'..=b'9' => {
                        let mut value = u32::from(first - b'0');
                        for _ in 0..2 {
                            let digit = octets.next().filter(u8::is_ascii_digit);
                            value = value * 10 + u32::from(digit.ok_or_else(bad)? - b'0');
                        }
                        u8::try_from(value).map_err(|_| bad())?
                    }
                    other => other,
                },
                plain => plain,
            };
            // One octet past the limit is enough for `push` to refuse.
            if len <= MAX_LABEL_LEN {
                label[len] = octet;
                len += 1;
            }
        }
        if len > 0 {
            b.push(&label[..len])?;
        }
        Ok(b.finish())
    }

    /// Build a name from raw label byte strings (leaf-first).
    pub fn from_labels<I, L>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut b = Builder::new();
        for l in labels {
            b.push(l.as_ref())?;
        }
        Ok(b.finish())
    }

    /// Prepend a label, producing the child `label.self`.
    pub fn child(&self, label: &str) -> Result<Self, WireError> {
        self.child_bytes(label.as_bytes())
    }

    /// [`Name::child`] for a label that is not text (or not yet a
    /// `str`), e.g. a base32 digest written into a stack buffer.
    pub fn child_bytes(&self, label: &[u8]) -> Result<Self, WireError> {
        let mut b = Builder::new();
        b.push(label)?;
        b.finish_with(self.as_wire())
    }

    /// The name with the leftmost label removed; `None` for the root.
    /// Shares `self`'s storage or copies a short tail: no allocation.
    pub fn parent(&self) -> Option<Self> {
        let len = usize::from(self.as_wire()[0]);
        (len != 0).then(|| self.tail(1 + len))
    }

    /// The ancestor made of the rightmost `labels` labels — `self` when
    /// it has no more than that. `suffix(1)` of `www.example.com` is
    /// `com`, `suffix(2)` the registered domain. Shares `self`'s
    /// storage or copies a short tail: no allocation.
    pub fn suffix(&self, labels: usize) -> Self {
        let wire = self.as_wire();
        let mut skip = self.label_count().saturating_sub(labels);
        let mut at = 0;
        while skip > 0 {
            at += 1 + usize::from(wire[at]);
            skip -= 1;
        }
        self.tail(at)
    }

    /// Number of labels (0 for the root). This is the RRSIG `labels` field
    /// value for non-wildcard owner names.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Iterate over labels, leaf-first.
    pub fn labels(&self) -> Labels<'_> {
        Labels {
            rest: self.as_wire(),
        }
    }

    /// The leftmost (leaf) label, if any.
    pub fn first_label(&self) -> Option<&[u8]> {
        self.labels().next()
    }

    /// True if `self` equals `ancestor` or is underneath it.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        let (wire, tail) = (self.as_wire(), ancestor.as_wire());
        let Some(cut) = wire.len().checked_sub(tail.len()) else {
            return false;
        };
        // The tail must start on one of our label boundaries.
        let mut at = 0;
        while at < cut {
            at += 1 + usize::from(wire[at]);
        }
        at == cut && wire[cut..] == *tail
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.as_wire()[0] == 0
    }

    /// Length of the uncompressed wire encoding (label lengths + root).
    pub fn wire_len(&self) -> usize {
        self.as_wire().len()
    }

    /// Uncompressed canonical wire form (RFC 4034 §6.2), borrowed:
    /// lowercase labels, no compression, root octet last. This is the
    /// form hashed by NSEC3 and signed by RRSIG.
    pub fn as_wire(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared { buf, start } => &buf[usize::from(*start)..],
        }
    }

    /// [`Name::as_wire`] as an owned buffer.
    pub fn to_wire(&self) -> Vec<u8> {
        self.as_wire().to_vec()
    }

    /// Encode into `buf`, compressing against previously-encoded names
    /// recorded in `compressor`. Pass `None` to force uncompressed output
    /// (required inside DNSSEC RDATA).
    pub fn encode(&self, buf: &mut Vec<u8>, compressor: Option<&mut Compressor>) {
        encode_wire(self.as_wire(), buf, compressor);
    }

    /// Decode a (possibly compressed) name from `msg` starting at
    /// `*pos`, advancing `*pos` past the name's in-place bytes.
    pub fn decode(msg: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        let mut out = Builder::new();
        let mut cursor = *pos;
        let mut jumped = false;
        // Each pointer must strictly decrease, which bounds the walk.
        let mut last_pointer = msg.len();

        loop {
            let len_byte =
                *msg.get(cursor)
                    .ok_or(WireError::Truncated { context: "name" })? as usize;
            match len_byte {
                0 => {
                    if !jumped {
                        *pos = cursor + 1;
                    }
                    return Ok(out.finish());
                }
                1..=MAX_LABEL_LEN => {
                    let start = cursor + 1;
                    let end = start + len_byte;
                    let label = msg
                        .get(start..end)
                        .ok_or(WireError::Truncated { context: "label" })?;
                    out.push(label)?;
                    cursor = end;
                }
                l if l & 0xC0 == 0xC0 => {
                    let second = *msg
                        .get(cursor + 1)
                        .ok_or(WireError::Truncated { context: "pointer" })?
                        as usize;
                    let target = ((l & 0x3F) << 8) | second;
                    // A pointer must reference earlier message bytes
                    // (no forward jumps), and successive pointer targets
                    // must strictly decrease (no loops).
                    if target >= cursor || target >= last_pointer {
                        return Err(WireError::BadPointer);
                    }
                    last_pointer = target;
                    if !jumped {
                        *pos = cursor + 2;
                        jumped = true;
                    }
                    cursor = target;
                }
                _ => return Err(WireError::BadLabel(format!("length byte {len_byte:#x}"))),
            }
        }
    }

    /// Deterministic 64-bit FNV-1a hash over the canonical label bytes
    /// (each label's length octet, then its bytes; the root octet is
    /// left out).
    ///
    /// Unlike `Hash`/`HashMap`'s SipHash (randomized per process in
    /// general-purpose hashers), this value is stable across runs and
    /// processes — sharded stores (the resolver cache, flap tables) use
    /// it both to pick a shard and as the lookup key, so a probe never
    /// has to clone the name.
    pub fn shard_hash(&self) -> u64 {
        shard_hash_of(self.as_wire())
    }

    /// Offsets of this name's labels within [`Name::as_wire`],
    /// leaf-first, and how many there are.
    fn label_offsets(&self) -> ([u8; MAX_LABELS], usize) {
        let wire = self.as_wire();
        let mut offsets = [0u8; MAX_LABELS];
        let (mut at, mut n) = (0, 0);
        while wire[at] != 0 {
            offsets[n] = at as u8;
            n += 1;
            at += 1 + usize::from(wire[at]);
        }
        (offsets, n)
    }

    /// RFC 4034 §6.1 canonical ordering: compare label-by-label from the
    /// *rightmost* (TLD) label, each label as raw lowercase bytes.
    pub fn canonical_cmp(&self, other: &Name) -> Ordering {
        let (a, b) = (self.as_wire(), other.as_wire());
        if a == b {
            return Ordering::Equal;
        }
        fn label(wire: &[u8], at: u8) -> &[u8] {
            let at = usize::from(at);
            &wire[at + 1..at + 1 + usize::from(wire[at])]
        }
        let ((a_at, a_n), (b_at, b_n)) = (self.label_offsets(), other.label_offsets());
        for i in 1..=a_n.min(b_n) {
            match label(a, a_at[a_n - i]).cmp(label(b, b_at[b_n - i])) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        a_n.cmp(&b_n)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_wire() == other.as_wire()
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_wire().hash(state);
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_cmp(other)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        let plain = |b: &u8| b.is_ascii_graphic() && *b != b'.' && *b != b'\\';
        for label in self.labels() {
            // Each run of plain octets in one write, then the escape
            // that ends it.
            for run in label.split_inclusive(|b| !plain(b)) {
                let (text, escaped) = match run.split_last() {
                    Some((&b, text)) if !plain(&b) => (text, Some(b)),
                    _ => (run, None),
                };
                f.write_str(std::str::from_utf8(text).expect("plain octets are ASCII"))?;
                if let Some(b) = escaped {
                    write!(f, "\\{b:03}")?;
                }
            }
            f.write_char('.')?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    // Delegate to Display: names read better dotted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// [`Name::shard_hash`] of the name whose canonical wire form is
/// `wire`, for a caller that holds the form and no `Name`.
pub fn shard_hash_of(wire: &[u8]) -> u64 {
    let labels = wire.split_last().map_or(wire, |(_root, labels)| labels);
    labels.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// [`Name::encode`] of the name whose canonical wire form is `wire`.
pub(crate) fn encode_wire(wire: &[u8], buf: &mut Vec<u8>, compressor: Option<&mut Compressor>) {
    let Some(c) = compressor else {
        buf.extend_from_slice(wire);
        return;
    };
    // Walk suffixes from the full name down; emit a pointer at the
    // first suffix the compressor has seen, else emit the label and
    // record the suffix position.
    let mut at = 0;
    while wire[at] != 0 {
        if let Some(offset) = c.find_or_record(buf, &wire[at..]) {
            // 14-bit pointer: 0b11 prefix.
            buf.extend_from_slice(&(0xC000u16 | offset).to_be_bytes());
            return;
        }
        let end = at + 1 + usize::from(wire[at]);
        buf.extend_from_slice(&wire[at..end]);
        at = end;
    }
    buf.push(0);
}

/// Compression state shared across one message encoding: for each name
/// suffix written so far, `(FNV-1a of its wire form, that form's length,
/// its offset in the message)`.
///
/// No suffix is copied: a lookup confirms a candidate against the bytes
/// already in the output, following the pointers written there. The
/// first sixteen entries live inline (length 0 marks a free slot), the
/// rest in a spill `Vec`: a message with few names allocates nothing here.
#[derive(Default)]
pub struct Compressor {
    /// Where the message starts in its buffer: pointers count from the
    /// message's first byte, not the buffer's.
    base: usize,
    inline: [(u32, u8, u16); 16],
    spill: Vec<(u32, u8, u16)>,
}

impl Compressor {
    /// A fresh, empty compression table for a message that starts `base`
    /// bytes into its buffer (`Compressor::default()` starts at its first
    /// byte).
    pub(crate) fn at(base: usize) -> Self {
        Compressor {
            base,
            ..Self::default()
        }
    }

    /// Where `suffix` (a canonical wire name) was first written in the
    /// message at the end of `buf`. If nowhere a pointer can reach, it is
    /// recorded as starting at `buf`'s end, where the caller writes it.
    fn find_or_record(&mut self, buf: &[u8], suffix: &[u8]) -> Option<u16> {
        let msg = &buf[self.base..];
        let len = suffix.len() as u8;
        let hash = suffix.iter().fold(0x811c_9dc5u32, |h, &b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        });
        let same =
            |e: &&(u32, u8, u16)| (e.0, e.1) == (hash, len) && spells(msg, e.2.into(), suffix);
        if let Some(seen) = self.inline.iter().chain(&self.spill).find(same) {
            return Some(seen.2);
        }
        // Only offsets that fit in 14 bits may be targets.
        if msg.len() < 0x3FFF {
            let entry = (hash, len, msg.len() as u16);
            match self.inline.iter_mut().find(|free| free.1 == 0) {
                Some(free) => *free = entry,
                None => self.spill.push(entry),
            }
        }
        None
    }
}

/// Whether the possibly compressed name at `msg[at..]`, which this
/// encoder wrote, is `suffix`.
fn spells(msg: &[u8], mut at: usize, mut suffix: &[u8]) -> bool {
    loop {
        let len = usize::from(msg[at]);
        if len >= 0xC0 {
            at = (len & 0x3F) << 8 | usize::from(msg[at + 1]);
        } else if suffix.get(..=len) != Some(&msg[at..=at + len]) {
            return false;
        } else if len == 0 {
            return true;
        } else {
            at += 1 + len;
            suffix = &suffix[1 + len..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("www.Example.COM").to_string(), "www.example.com.");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("").to_string(), ".");
        assert_eq!(n("example.com.").to_string(), "example.com.");
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(Name::parse("a..b").is_err());
        let long = "x".repeat(64);
        assert!(Name::parse(&long).is_err());
        assert!(Name::parse(&"y.".repeat(130)).is_err());
    }

    #[test]
    fn wire_roundtrip_uncompressed() {
        let name = n("a.bc.def.example.com");
        let wire = name.to_wire();
        let mut pos = 0;
        assert_eq!(Name::decode(&wire, &mut pos).unwrap(), name);
        assert_eq!(pos, wire.len());
        assert_eq!(wire.len(), name.wire_len());
    }

    #[test]
    fn root_wire_form() {
        assert_eq!(Name::root().to_wire(), vec![0]);
        let mut pos = 0;
        assert_eq!(Name::decode(&[0], &mut pos).unwrap(), Name::root());
    }

    #[test]
    fn compression_shares_suffixes() {
        let mut buf = Vec::new();
        let mut c = Compressor::default();
        n("mail.example.com").encode(&mut buf, Some(&mut c));
        let first_len = buf.len();
        n("www.example.com").encode(&mut buf, Some(&mut c));
        // Second name: "www" label (4 bytes) + 2-byte pointer.
        assert_eq!(buf.len(), first_len + 4 + 2);

        let mut pos = 0;
        assert_eq!(Name::decode(&buf, &mut pos).unwrap(), n("mail.example.com"));
        assert_eq!(Name::decode(&buf, &mut pos).unwrap(), n("www.example.com"));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn identical_name_becomes_pure_pointer() {
        let mut buf = Vec::new();
        let mut c = Compressor::default();
        n("example.com").encode(&mut buf, Some(&mut c));
        let first_len = buf.len();
        n("example.com").encode(&mut buf, Some(&mut c));
        assert_eq!(buf.len(), first_len + 2);
    }

    #[test]
    fn pointer_loops_rejected() {
        // Pointer at offset 0 pointing to itself.
        let msg = [0xC0, 0x00];
        let mut pos = 0;
        assert_eq!(Name::decode(&msg, &mut pos), Err(WireError::BadPointer));
    }

    #[test]
    fn forward_pointers_rejected() {
        let msg = [0xC0, 0x04, 0, 0, 1, b'a', 0];
        let mut pos = 0;
        assert_eq!(Name::decode(&msg, &mut pos), Err(WireError::BadPointer));
    }

    #[test]
    fn canonical_ordering_rfc4034_example() {
        // RFC 4034 §6.1 example order.
        let order = [
            "example",
            "a.example",
            "yljkjljk.a.example",
            "Z.a.example",
            "zABC.a.EXAMPLE",
            "z.example",
        ];
        let names: Vec<Name> = order.iter().map(|s| n(s)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names);
    }

    #[test]
    fn subdomain_relations() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&Name::root()));
        assert!(!n("example.com").is_subdomain_of(&n("example.org")));
        assert!(!n("xexample.com").is_subdomain_of(&n("example.com")));
    }

    fn is_inline(name: &Name) -> bool {
        matches!(name.0, Repr::Inline { .. })
    }

    #[test]
    fn a_name_is_no_larger_than_the_shared_form_was() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        assert_eq!(std::mem::size_of::<Option<Name>>(), 24);
    }

    /// Inline exactly when the wire form fits, however the name was made.
    #[test]
    fn the_form_follows_the_length() {
        // 1 + 16 + 1 + 3 + 1 = 22 octets; one more letter is 23.
        let fits = n("abcdefghijklmnop.com");
        let long = n("abcdefghijklmnopq.com");
        assert_eq!((fits.wire_len(), long.wire_len()), (MAX_INLINE_LEN, 23));
        assert!(is_inline(&fits) && !is_inline(&long));
        assert!(is_inline(&Name::root()));
        assert!(is_inline(&long.parent().unwrap()));
        assert!(is_inline(&long.suffix(1)));
        let deep = n("a.abcdefghijklmnopq.com");
        assert!(!is_inline(&deep.parent().unwrap()));
        assert_eq!(deep.parent().unwrap(), long);
        let above_fits = n("a.abcdefghijklmnop.com");
        assert!(!is_inline(&above_fits) && is_inline(&above_fits.parent().unwrap()));
        assert_eq!(above_fits.suffix(2), fits);
        assert!(is_inline(&fits.child("a").unwrap().parent().unwrap()));
        assert!(!is_inline(&fits.child("a").unwrap()));
        let mut pos = 0;
        assert!(!is_inline(&Name::decode(long.as_wire(), &mut pos).unwrap()));
    }

    #[test]
    fn child_and_parent() {
        let base = n("example.com");
        let child = base.child("no-ds").unwrap();
        assert_eq!(child.to_string(), "no-ds.example.com.");
        assert_eq!(child.parent().unwrap(), base);
        assert_eq!(Name::root().parent(), None);
        assert_eq!(child.label_count(), 3);
    }
}
