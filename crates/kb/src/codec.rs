//! The `.rbkb` binary format: hand-rolled, versioned, length-prefixed,
//! checksummed — and independent of serde, so it works today with the
//! vendored compile-surface stubs.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            4 bytes   "RBKB"
//! format version   1 byte    currently 1
//! entry count      4 bytes   u32
//! per entry:
//!   vector dim     2 bytes   u16
//!   components     dim × 8   f64 bit patterns (round-trips NaN payloads)
//!   class          1 byte    stable UbClass code
//!   rule           1 byte    stable RepairRule code
//!   weight         4 bytes   u32
//! checksum         8 bytes   FNV-1a 64 over every preceding byte
//! ```
//!
//! The checksum covers the header too, so any single corrupted byte —
//! header, payload or trailer — is guaranteed to surface as a
//! [`CodecError`] rather than decoding into a silently wrong base.

use crate::KbEntry;
use rb_lang::vectorize::AstVector;
use rb_llm::RepairRule;
use rb_miri::UbClass;
use std::fmt;

/// File magic, the first four bytes of every `.rbkb` file.
pub const MAGIC: [u8; 4] = *b"RBKB";

/// Current format version. Bump when the entry layout changes; decoding
/// rejects versions it does not know instead of misreading them.
pub const FORMAT_VERSION: u8 = 1;

/// Why a byte stream failed to decode. Every variant is a refusal — the
/// decoder never panics and never returns a partially decoded base.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The stream does not start with the magic of its format:
    /// [`MAGIC`] for an `.rbkb` stream, the manifest magic for a sharded
    /// store's manifest.
    BadMagic {
        /// The first bytes actually found (possibly fewer than 4).
        found: Vec<u8>,
        /// The magic the format starts with.
        want: [u8; 4],
    },
    /// The format-version byte is newer (or older) than this decoder.
    UnsupportedVersion(u8),
    /// The stream ended before the announced content did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// Bytes remain after the checksum — the file was appended to or the
    /// length prefix was corrupted.
    TrailingBytes(usize),
    /// The trailing checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the content.
        computed: u64,
    },
    /// An entry carries a class code this decoder does not know.
    BadClass(u8),
    /// An entry carries a rule code this decoder does not know.
    BadRule(u8),
    /// An entry carries a weight of zero, which no encoder produces.
    ZeroWeight,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { found, want } => write!(
                f,
                "bad magic {found:02x?}, want {want:02x?} ({:?})",
                String::from_utf8_lossy(want)
            ),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (decoder knows {FORMAT_VERSION})"
                )
            }
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated: needed {needed} more bytes, have {have}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the checksum"),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            CodecError::BadClass(c) => write!(f, "unknown UB-class code {c}"),
            CodecError::BadRule(r) => write!(f, "unknown repair-rule code {r}"),
            CodecError::ZeroWeight => write!(f, "entry with weight 0"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Stable wire code of a UB class. The codes are part of the `.rbkb`
/// format: never renumber, only append.
#[must_use]
pub fn class_code(class: UbClass) -> u8 {
    match class {
        UbClass::Alloc => 0,
        UbClass::DanglingPointer => 1,
        UbClass::Panic => 2,
        UbClass::Provenance => 3,
        UbClass::Uninit => 4,
        UbClass::BothBorrow => 5,
        UbClass::DataRace => 6,
        UbClass::FuncCall => 7,
        UbClass::FuncPointer => 8,
        UbClass::StackBorrow => 9,
        UbClass::Validity => 10,
        UbClass::Unaligned => 11,
        UbClass::TailCall => 12,
        UbClass::Concurrency => 13,
        UbClass::Compile => 14,
    }
}

/// Number of distinct class codes (bucket count for the class index).
pub const NUM_CLASS_CODES: usize = 15;

/// Decodes a wire code back to a UB class.
#[must_use]
pub fn class_from_code(code: u8) -> Option<UbClass> {
    Some(match code {
        0 => UbClass::Alloc,
        1 => UbClass::DanglingPointer,
        2 => UbClass::Panic,
        3 => UbClass::Provenance,
        4 => UbClass::Uninit,
        5 => UbClass::BothBorrow,
        6 => UbClass::DataRace,
        7 => UbClass::FuncCall,
        8 => UbClass::FuncPointer,
        9 => UbClass::StackBorrow,
        10 => UbClass::Validity,
        11 => UbClass::Unaligned,
        12 => UbClass::TailCall,
        13 => UbClass::Concurrency,
        14 => UbClass::Compile,
        _ => return None,
    })
}

/// Stable wire code of a repair rule. Part of the `.rbkb` format: never
/// renumber, only append.
#[must_use]
pub fn rule_code(rule: RepairRule) -> u8 {
    match rule {
        RepairRule::UseDirectPointer => 0,
        RepairRule::BoolFromComparison => 1,
        RepairRule::TransmuteBytesToFromLe => 2,
        RepairRule::BorrowLocalInstead => 3,
        RepairRule::DirectFnUse => 4,
        RepairRule::FixFnPtrSignature => 5,
        RepairRule::UseAtomics => 6,
        RepairRule::WidenArithmetic => 7,
        RepairRule::UseRawMutDirect => 8,
        RepairRule::GuardDivision => 9,
        RepairRule::GuardIndex => 10,
        RepairRule::WeakenAssert => 11,
        RepairRule::AssertNonNull => 12,
        RepairRule::LockSpawnBodies => 13,
        RepairRule::RemoveDoubleFree => 14,
        RepairRule::FixDeallocLayout => 15,
        RepairRule::AddDealloc => 16,
        RepairRule::HoistLocalOut => 17,
        RepairRule::ReorderDeallocAfterUse => 18,
        RepairRule::AlignOffsetDown => 19,
        RepairRule::AlignOffsetUp => 20,
        RepairRule::InitializeBeforeRead => 21,
        RepairRule::UnionUseLargestField => 22,
        RepairRule::RetakePointerAfterWrite => 23,
        RepairRule::SingleMutBorrow => 24,
        RepairRule::MoveReadAfterJoin => 25,
        RepairRule::ReplaceTailCallWithReturn => 26,
        RepairRule::FixLiteralIndex => 27,
        RepairRule::CopyWithoutOverlap => 28,
        RepairRule::DeleteStatement => 29,
        RepairRule::DuplicateStatement => 30,
        RepairRule::PerturbLiteral => 31,
        RepairRule::DisableStatement => 32,
        RepairRule::StripUnsafe => 33,
        RepairRule::BreakBinding => 34,
        RepairRule::BreakTypes => 35,
    }
}

/// Decodes a wire code back to a repair rule.
#[must_use]
pub fn rule_from_code(code: u8) -> Option<RepairRule> {
    Some(match code {
        0 => RepairRule::UseDirectPointer,
        1 => RepairRule::BoolFromComparison,
        2 => RepairRule::TransmuteBytesToFromLe,
        3 => RepairRule::BorrowLocalInstead,
        4 => RepairRule::DirectFnUse,
        5 => RepairRule::FixFnPtrSignature,
        6 => RepairRule::UseAtomics,
        7 => RepairRule::WidenArithmetic,
        8 => RepairRule::UseRawMutDirect,
        9 => RepairRule::GuardDivision,
        10 => RepairRule::GuardIndex,
        11 => RepairRule::WeakenAssert,
        12 => RepairRule::AssertNonNull,
        13 => RepairRule::LockSpawnBodies,
        14 => RepairRule::RemoveDoubleFree,
        15 => RepairRule::FixDeallocLayout,
        16 => RepairRule::AddDealloc,
        17 => RepairRule::HoistLocalOut,
        18 => RepairRule::ReorderDeallocAfterUse,
        19 => RepairRule::AlignOffsetDown,
        20 => RepairRule::AlignOffsetUp,
        21 => RepairRule::InitializeBeforeRead,
        22 => RepairRule::UnionUseLargestField,
        23 => RepairRule::RetakePointerAfterWrite,
        24 => RepairRule::SingleMutBorrow,
        25 => RepairRule::MoveReadAfterJoin,
        26 => RepairRule::ReplaceTailCallWithReturn,
        27 => RepairRule::FixLiteralIndex,
        28 => RepairRule::CopyWithoutOverlap,
        29 => RepairRule::DeleteStatement,
        30 => RepairRule::DuplicateStatement,
        31 => RepairRule::PerturbLiteral,
        32 => RepairRule::DisableStatement,
        33 => RepairRule::StripUnsafe,
        34 => RepairRule::BreakBinding,
        35 => RepairRule::BreakTypes,
        _ => return None,
    })
}

/// FNV-1a 64-bit over a byte slice — the format's checksum. Not
/// cryptographic; it detects corruption, not tampering.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Encodes entries to the `.rbkb` wire format.
#[must_use]
pub fn encode_entries(entries: &[KbEntry]) -> Vec<u8> {
    encode_inner(entries.len(), entries.iter())
}

/// Encodes borrowed entries to the `.rbkb` wire format — what the
/// sharded store uses to write one class's segment out of a larger base
/// without cloning the entries first.
#[must_use]
pub fn encode_entries_refs(entries: &[&KbEntry]) -> Vec<u8> {
    encode_inner(entries.len(), entries.iter().copied())
}

fn encode_inner<'a>(count: usize, entries: impl Iterator<Item = &'a KbEntry>) -> Vec<u8> {
    // The count prefix is u32 (and per-entry dims u16); a base past
    // either bound encodes truncated-but-decodable rather than writing a
    // count the content contradicts (which would checksum fine and then
    // refuse to decode — a save that quietly bricks the store). In
    // practice the merge policy bounds the base far below this.
    debug_assert!(
        u32::try_from(count).is_ok(),
        "encoding truncates a base past u32::MAX entries"
    );
    let count = u32::try_from(count).unwrap_or(u32::MAX);
    let mut out = Vec::with_capacity(9 + count as usize * (8 + 64 * 8));
    out.extend_from_slice(&MAGIC);
    out.push(FORMAT_VERSION);
    out.extend_from_slice(&count.to_le_bytes());
    for e in entries.take(count as usize) {
        let dim = u16::try_from(e.vector.components.len()).unwrap_or(u16::MAX);
        out.extend_from_slice(&dim.to_le_bytes());
        for c in e.vector.components.iter().take(usize::from(dim)) {
            out.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        out.push(class_code(e.class));
        out.push(rule_code(e.rule));
        out.extend_from_slice(&e.weight.to_le_bytes());
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A cursor over the input with typed truncation errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let have = self.bytes.len() - self.pos;
        if have < n {
            return Err(CodecError::Truncated { needed: n, have });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

/// A streaming decoder over a `.rbkb` byte stream: entries materialize
/// one at a time instead of all at once, so a consumer can index, filter
/// or re-encode a large store without ever holding two copies of it.
///
/// Produced by [`decode_entries_iter`], which validates the header and
/// the trailing checksum *up front* — by the time the iterator yields its
/// first entry, the bytes are known to be exactly what an encoder wrote.
/// Per-entry structural validation (codes, weights, the announced count
/// matching the content) still happens lazily; the first failure is
/// yielded as an `Err` and the iterator fuses.
pub struct EntriesIter<'a> {
    /// Reader over the content region only (checksum excluded), so an
    /// overlong entry reads [`CodecError::Truncated`], never the checksum.
    r: Reader<'a>,
    remaining: usize,
    done: bool,
}

impl Iterator for EntriesIter<'_> {
    type Item = Result<KbEntry, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.remaining == 0 {
            self.done = true;
            let left = self.r.bytes.len() - self.r.pos;
            if left != 0 {
                return Some(Err(CodecError::TrailingBytes(left)));
            }
            return None;
        }
        self.remaining -= 1;
        let entry = self.decode_one();
        if entry.is_err() {
            self.done = true;
        }
        Some(entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            // The announced count bounds the entries, plus one possible
            // final `Err` item (a structural error, or TrailingBytes when
            // the content outruns the count).
            (0, Some(self.remaining + 1))
        }
    }
}

impl EntriesIter<'_> {
    /// Entries the stream still announces (an upper bound once errors are
    /// possible; exact for a well-formed stream).
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    fn decode_one(&mut self) -> Result<KbEntry, CodecError> {
        let r = &mut self.r;
        let dim = usize::from(r.u16()?);
        let mut components = Vec::with_capacity(dim);
        for _ in 0..dim {
            components.push(f64::from_bits(r.u64()?));
        }
        let class = r.u8()?;
        let class = class_from_code(class).ok_or(CodecError::BadClass(class))?;
        let rule = r.u8()?;
        let rule = rule_from_code(rule).ok_or(CodecError::BadRule(rule))?;
        let weight = r.u32()?;
        if weight == 0 {
            return Err(CodecError::ZeroWeight);
        }
        Ok(KbEntry {
            vector: AstVector { components },
            class,
            rule,
            weight,
        })
    }
}

/// Opens a streaming decoder over a `.rbkb` byte stream.
///
/// The magic, format version and trailing checksum are validated here,
/// before any entry is decoded — corruption anywhere in the stream
/// (truncation, bit flips, foreign files) surfaces as an immediate
/// [`CodecError`]. The returned [`EntriesIter`] then yields entries
/// incrementally; per-entry structural problems a checksum cannot rule
/// out (unknown codes in a hand-crafted file, a count that disagrees
/// with the content) are yielded as `Err` items.
pub fn decode_entries_iter(bytes: &[u8]) -> Result<EntriesIter<'_>, CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(4).map_err(|_| CodecError::BadMagic {
        found: bytes.to_vec(),
        want: MAGIC,
    })?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic {
            found: magic.to_vec(),
            want: MAGIC,
        });
    }
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let count = r.u32()? as usize;
    let have = bytes.len() - r.pos;
    if have < 8 {
        return Err(CodecError::Truncated { needed: 8, have });
    }
    let content_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[content_end..].try_into().expect("len 8"));
    let computed = fnv1a64(&bytes[..content_end]);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(EntriesIter {
        r: Reader {
            bytes: &bytes[..content_end],
            pos: r.pos,
        },
        remaining: count,
        done: false,
    })
}

/// Decodes a `.rbkb` byte stream back into entries.
///
/// Validates the magic, version, per-entry codes, the exact stream length
/// and the trailing checksum; any corruption — truncation, bit flips,
/// foreign files — returns a [`CodecError`] instead of panicking. This is
/// [`decode_entries_iter`] collected; use the iterator directly when the
/// store is large and entries can be consumed incrementally.
pub fn decode_entries(bytes: &[u8]) -> Result<Vec<KbEntry>, CodecError> {
    decode_entries_iter(bytes)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bits: &[f64], class: UbClass, rule: RepairRule, weight: u32) -> KbEntry {
        KbEntry {
            vector: AstVector {
                components: bits.to_vec(),
            },
            class,
            rule,
            weight,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let entries = vec![
            entry(
                &[0.5, -1.25, f64::NAN, 0.0],
                UbClass::Alloc,
                RepairRule::AddDealloc,
                3,
            ),
            entry(&[], UbClass::Compile, RepairRule::BreakTypes, 1),
            entry(
                &[1e300, -0.0],
                UbClass::DataRace,
                RepairRule::UseAtomics,
                u32::MAX,
            ),
        ];
        let decoded = decode_entries(&encode_entries(&entries)).unwrap();
        assert_eq!(decoded.len(), entries.len());
        for (d, e) in decoded.iter().zip(&entries) {
            assert_eq!((d.class, d.rule, d.weight), (e.class, e.rule, e.weight));
            // Bit-level comparison so NaN and -0.0 count as preserved.
            let db: Vec<u64> = d.vector.components.iter().map(|c| c.to_bits()).collect();
            let eb: Vec<u64> = e.vector.components.iter().map(|c| c.to_bits()).collect();
            assert_eq!(db, eb);
        }
    }

    #[test]
    fn class_and_rule_codes_are_total_and_stable() {
        for class in UbClass::ALL.into_iter().chain([UbClass::Compile]) {
            assert_eq!(class_from_code(class_code(class)), Some(class));
        }
        assert!(usize::from(class_code(UbClass::Compile)) < NUM_CLASS_CODES);
        let mut seen = std::collections::HashSet::new();
        for code in 0..=u8::MAX {
            if let Some(rule) = rule_from_code(code) {
                assert_eq!(rule_code(rule), code);
                assert!(seen.insert(rule), "code {code} duplicates {rule:?}");
            }
        }
        assert_eq!(seen.len(), 36, "every RepairRule variant needs a code");
    }

    #[test]
    fn rejects_foreign_magic_and_versions() {
        let err = decode_entries(b"JSON{}").unwrap_err();
        assert_eq!(
            err,
            CodecError::BadMagic {
                found: b"JSON".to_vec(),
                want: MAGIC,
            }
        );
        assert_eq!(
            err.to_string(),
            "bad magic [4a, 53, 4f, 4e], want [52, 42, 4b, 42] (\"RBKB\")"
        );
        let mut bytes = encode_entries(&[]);
        bytes[4] = 99;
        assert!(matches!(
            decode_entries(&bytes),
            Err(CodecError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn any_truncation_is_an_error() {
        let entries = vec![entry(
            &[1.0, 2.0],
            UbClass::Panic,
            RepairRule::GuardDivision,
            2,
        )];
        let bytes = encode_entries(&entries);
        for len in 0..bytes.len() {
            assert!(
                decode_entries(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn any_single_byte_flip_is_an_error() {
        let entries = vec![entry(
            &[0.25],
            UbClass::Uninit,
            RepairRule::InitializeBeforeRead,
            1,
        )];
        let bytes = encode_entries(&entries);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode_entries(&corrupt).is_err(),
                "flip at byte {i} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        // A blind append lands after the checksum: the checksum (computed
        // over everything but the trailing 8 bytes) no longer lines up.
        let mut bytes = encode_entries(&[]);
        bytes.push(0);
        assert!(matches!(
            decode_entries(&bytes),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Junk *inside* a checksum-valid stream — content beyond the
        // announced entry count — is the TrailingBytes refusal.
        let mut bytes = encode_entries(&[]);
        bytes.truncate(bytes.len() - 8); // drop the checksum
        bytes.push(0xAB); // junk the count does not announce
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode_entries(&bytes),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn streaming_decode_yields_entries_incrementally() {
        let entries = vec![
            entry(&[1.0, 2.0], UbClass::Panic, RepairRule::GuardDivision, 2),
            entry(&[0.5], UbClass::Alloc, RepairRule::AddDealloc, 1),
            entry(&[], UbClass::Compile, RepairRule::BreakTypes, 7),
        ];
        let bytes = encode_entries(&entries);
        let mut it = decode_entries_iter(&bytes).unwrap();
        assert_eq!(it.remaining(), 3);
        assert_eq!(it.next().unwrap().unwrap(), entries[0]);
        assert_eq!(it.remaining(), 2);
        let rest: Result<Vec<KbEntry>, CodecError> = it.collect();
        assert_eq!(rest.unwrap(), entries[1..]);
    }

    #[test]
    fn streaming_decode_rejects_corruption_before_the_first_entry() {
        let entries = vec![entry(&[0.25], UbClass::Uninit, RepairRule::GuardIndex, 1)];
        let mut bytes = encode_entries(&entries);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        // The checksum is verified when the iterator is opened, so the
        // consumer can never stream entries out of a corrupt file.
        assert!(matches!(
            decode_entries_iter(&bytes),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn streaming_decode_fuses_after_a_structural_error() {
        // A hand-crafted stream with a valid checksum but an unknown class
        // code: the iterator yields the typed error once, then fuses.
        let good = entry(&[1.0], UbClass::Panic, RepairRule::GuardDivision, 1);
        let mut bytes = encode_entries(&[good.clone(), good]);
        bytes.truncate(bytes.len() - 8);
        let class_at = 4 + 1 + 4 + 2 + 8; // header, dim, one component
        bytes[class_at] = 200; // no such class code
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let mut it = decode_entries_iter(&bytes).unwrap();
        assert!(matches!(it.next(), Some(Err(CodecError::BadClass(200)))));
        assert!(it.next().is_none(), "iterator must fuse after an error");
    }
}
