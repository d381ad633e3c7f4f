//! JSON codecs for the persisted metadata types.
//!
//! Namespace entries and index segments are stored as segment bytes /
//! kvdb values; both use a hand-written JSON mapping over
//! [`sorrento_json::Json`] (the workspace is hermetic — no serde).
//! 128-bit ids are hex strings so they round-trip exactly; attached
//! small-file bytes are hex too (≤ [`crate::layout::ATTACH_MAX`], so
//! the blow-up is bounded).

use std::fmt;

use sorrento_json::Json;

use crate::layout::{IndexSegment, SegEntry};
use crate::proto::FileEntry;
use crate::types::{EcParams, FileId, FileOptions, Organization, PlacementPolicy, SegId, Version};

/// Why a persisted metadata value failed to parse. Unlike the earlier
/// `Option`-returning parsers, the error names the offending field, so
/// a corrupt namespace entry or index segment is diagnosable from the
/// error alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but has the wrong type or an unparsable
    /// value (bad hex, unknown enum tag, odd-length attachment, ...).
    InvalidField(&'static str),
    /// The value bytes are not UTF-8 text.
    NotUtf8,
    /// The text is not well-formed JSON.
    BadJson,
}

impl CodecError {
    /// A static label for metrics/telemetry (never allocates).
    pub fn label(self) -> &'static str {
        match self {
            CodecError::MissingField(f) | CodecError::InvalidField(f) => f,
            CodecError::NotUtf8 => "utf8",
            CodecError::BadJson => "json",
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::MissingField(name) => write!(f, "missing field `{name}`"),
            CodecError::InvalidField(name) => write!(f, "invalid field `{name}`"),
            CodecError::NotUtf8 => f.write_str("value is not UTF-8"),
            CodecError::BadJson => f.write_str("value is not valid JSON"),
        }
    }
}

impl std::error::Error for CodecError {}

fn field<'a>(j: &'a Json, name: &'static str) -> Result<&'a Json, CodecError> {
    j.get(name).ok_or(CodecError::MissingField(name))
}

fn u64_field(j: &Json, name: &'static str) -> Result<u64, CodecError> {
    field(j, name)?
        .as_u64()
        .ok_or(CodecError::InvalidField(name))
}

fn f64_field(j: &Json, name: &'static str) -> Result<f64, CodecError> {
    field(j, name)?
        .as_f64()
        .ok_or(CodecError::InvalidField(name))
}

fn bool_field(j: &Json, name: &'static str) -> Result<bool, CodecError> {
    field(j, name)?
        .as_bool()
        .ok_or(CodecError::InvalidField(name))
}

fn str_field<'a>(j: &'a Json, name: &'static str) -> Result<&'a str, CodecError> {
    field(j, name)?
        .as_str()
        .ok_or(CodecError::InvalidField(name))
}

fn u128_to_json(x: u128) -> Json {
    Json::Str(format!("{x:x}"))
}

fn u128_field(j: &Json, name: &'static str) -> Result<u128, CodecError> {
    u128::from_str_radix(str_field(j, name)?, 16).map_err(|_| CodecError::InvalidField(name))
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// The value of each hex digit (either case) by its byte; 0xff for
/// every other byte.
const UNHEX: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut v = 0;
    while v < 16 {
        table[HEX[v] as usize] = v as u8;
        table[HEX[v].to_ascii_uppercase() as usize] = v as u8;
        v += 1;
    }
    table
};

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[usize::from(b >> 4)]);
        out.push(HEX[usize::from(b & 0xf)]);
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let digits = s.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let (hi, lo) = (UNHEX[usize::from(pair[0])], UNHEX[usize::from(pair[1])]);
        if hi | lo > 0xf {
            return None;
        }
        out.push(hi << 4 | lo);
    }
    Some(out)
}

fn organization_to_json(o: &Organization) -> Json {
    match o {
        Organization::Linear => Json::obj().with("mode", "linear"),
        Organization::Striped { stripes, max_size } => Json::obj()
            .with("mode", "striped")
            .with("stripes", *stripes)
            .with("max_size", *max_size),
        Organization::Hybrid { group_stripes } => Json::obj()
            .with("mode", "hybrid")
            .with("group_stripes", *group_stripes),
    }
}

fn organization_from_json(j: &Json) -> Result<Organization, CodecError> {
    match str_field(j, "mode")? {
        "linear" => Ok(Organization::Linear),
        "striped" => Ok(Organization::Striped {
            stripes: u64_field(j, "stripes")? as u32,
            max_size: u64_field(j, "max_size")?,
        }),
        "hybrid" => Ok(Organization::Hybrid {
            group_stripes: u64_field(j, "group_stripes")? as u32,
        }),
        _ => Err(CodecError::InvalidField("mode")),
    }
}

fn placement_to_json(p: &PlacementPolicy) -> Json {
    match p {
        PlacementPolicy::Random => Json::obj().with("policy", "random"),
        PlacementPolicy::LoadAware => Json::obj().with("policy", "load_aware"),
        PlacementPolicy::LocalityDriven { threshold } => Json::obj()
            .with("policy", "locality_driven")
            .with("threshold", *threshold),
    }
}

fn placement_from_json(j: &Json) -> Result<PlacementPolicy, CodecError> {
    match str_field(j, "policy")? {
        "random" => Ok(PlacementPolicy::Random),
        "load_aware" => Ok(PlacementPolicy::LoadAware),
        "locality_driven" => Ok(PlacementPolicy::LocalityDriven {
            threshold: f64_field(j, "threshold")?,
        }),
        _ => Err(CodecError::InvalidField("policy")),
    }
}

/// [`FileOptions`] → JSON. The `ec` key is only emitted for
/// erasure-coded files, so metadata written by older builds (no `ec`
/// field at all) and replicated files decode identically.
pub fn options_to_json(o: &FileOptions) -> Json {
    let j = Json::obj()
        .with("replication", o.replication)
        .with("alpha", o.alpha)
        .with("organization", organization_to_json(&o.organization))
        .with("placement", placement_to_json(&o.placement))
        .with("versioning_off", o.versioning_off)
        .with("eager_commit", o.eager_commit);
    match o.ec {
        Some(p) => j.with("ec", Json::obj().with("k", p.k as u64).with("m", p.m as u64)),
        None => j,
    }
}

/// JSON → [`FileOptions`].
pub fn options_from_json(j: &Json) -> Result<FileOptions, CodecError> {
    let ec = match j.get("ec") {
        None | Some(Json::Null) => None,
        Some(e) => Some(EcParams {
            k: u64_field(e, "k")? as u8,
            m: u64_field(e, "m")? as u8,
        }),
    };
    Ok(FileOptions {
        replication: u64_field(j, "replication")? as u32,
        alpha: f64_field(j, "alpha")?,
        organization: organization_from_json(field(j, "organization")?)?,
        placement: placement_from_json(field(j, "placement")?)?,
        versioning_off: bool_field(j, "versioning_off")?,
        eager_commit: bool_field(j, "eager_commit")?,
        ec,
    })
}

/// [`FileEntry`] → JSON (namespace kvdb value format).
pub fn entry_to_json(e: &FileEntry) -> Json {
    Json::obj()
        .with("file", u128_to_json(e.file.0))
        .with("version", e.version.0)
        .with("size", e.size)
        .with("is_dir", e.is_dir)
        .with("created_ns", e.created_ns)
        .with("modified_ns", e.modified_ns)
        .with("options", options_to_json(&e.options))
}

/// JSON → [`FileEntry`].
pub fn entry_from_json(j: &Json) -> Result<FileEntry, CodecError> {
    Ok(FileEntry {
        file: FileId(u128_field(j, "file")?),
        version: Version(u64_field(j, "version")?),
        size: u64_field(j, "size")?,
        is_dir: bool_field(j, "is_dir")?,
        created_ns: u64_field(j, "created_ns")?,
        modified_ns: u64_field(j, "modified_ns")?,
        options: options_from_json(field(j, "options")?)?,
    })
}

fn seg_entry_to_json(s: &SegEntry) -> Json {
    Json::obj()
        .with("seg", u128_to_json(s.seg.0))
        .with("version", s.version.0)
        .with("len", s.len)
}

fn seg_entry_from_json(j: &Json) -> Result<SegEntry, CodecError> {
    Ok(SegEntry {
        seg: SegId(u128_field(j, "seg")?),
        version: Version(u64_field(j, "version")?),
        len: u64_field(j, "len")?,
    })
}

/// [`IndexSegment`] → JSON (index-segment byte format). `parity` is
/// only emitted when non-empty (EC files), keeping replicated files'
/// index bytes identical to older builds.
pub fn index_to_json(ix: &IndexSegment) -> Json {
    let mut segs = Json::arr();
    for s in &ix.segments {
        segs.push(seg_entry_to_json(s));
    }
    let attached = match &ix.attached {
        Some(bytes) => Json::Str(hex_encode(bytes)),
        None => Json::Null,
    };
    let j = Json::obj()
        .with("file", u128_to_json(ix.file.0))
        .with("options", options_to_json(&ix.options))
        .with("size", ix.size)
        .with("segments", segs)
        .with("attached", attached)
        .with("is_attached", ix.is_attached);
    if ix.parity.is_empty() {
        j
    } else {
        let mut par = Json::arr();
        for s in &ix.parity {
            par.push(seg_entry_to_json(s));
        }
        j.with("parity", par)
    }
}

/// JSON → [`IndexSegment`].
pub fn index_from_json(j: &Json) -> Result<IndexSegment, CodecError> {
    let segments = field(j, "segments")?
        .as_arr()
        .ok_or(CodecError::InvalidField("segments"))?
        .iter()
        .map(seg_entry_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let parity = match j.get("parity") {
        None | Some(Json::Null) => Vec::new(),
        Some(p) => p
            .as_arr()
            .ok_or(CodecError::InvalidField("parity"))?
            .iter()
            .map(seg_entry_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let attached = match field(j, "attached")? {
        Json::Null => None,
        Json::Str(s) => Some(hex_decode(s).ok_or(CodecError::InvalidField("attached"))?),
        _ => return Err(CodecError::InvalidField("attached")),
    };
    Ok(IndexSegment {
        file: FileId(u128_field(j, "file")?),
        options: options_from_json(field(j, "options")?)?,
        size: u64_field(j, "size")?,
        segments,
        parity,
        attached,
        is_attached: bool_field(j, "is_attached")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exotic_options() -> FileOptions {
        FileOptions {
            replication: 3,
            alpha: 0.75,
            organization: Organization::Striped { stripes: 4, max_size: 64 << 20 },
            placement: PlacementPolicy::LocalityDriven { threshold: 0.8 },
            versioning_off: false,
            eager_commit: true,
            ec: None,
        }
    }

    #[test]
    fn options_round_trip() {
        for o in [
            FileOptions::default(),
            exotic_options(),
            FileOptions {
                organization: Organization::Hybrid { group_stripes: 2 },
                placement: PlacementPolicy::Random,
                versioning_off: true,
                ..FileOptions::default()
            },
            FileOptions::erasure_coded(4, 2, 16 << 20),
        ] {
            let j = Json::parse(&options_to_json(&o).encode()).unwrap();
            assert_eq!(options_from_json(&j), Ok(o));
        }
    }

    #[test]
    fn entry_round_trip() {
        let e = FileEntry {
            file: FileId(0xDEAD_BEEF_0000_0001_u128 << 64 | 7),
            version: Version(0x1234_5678_9ABC_DEF0),
            size: 1 << 40,
            is_dir: false,
            created_ns: 17,
            modified_ns: 23,
            options: exotic_options(),
        };
        let j = Json::parse(&entry_to_json(&e).encode()).unwrap();
        assert_eq!(entry_from_json(&j), Ok(e));
    }

    #[test]
    fn index_round_trip_with_attachment() {
        let mut ix = IndexSegment::new(FileId(42), FileOptions::default());
        ix.size = 5;
        ix.attached = Some(vec![0, 1, 2, 254, 255]);
        ix.is_attached = true;
        let j = Json::parse(&index_to_json(&ix).encode()).unwrap();
        assert_eq!(index_from_json(&j), Ok(ix));
    }

    #[test]
    fn index_round_trip_with_segments() {
        let mut ix = IndexSegment::new(FileId(9), exotic_options());
        ix.size = 3 << 20;
        ix.is_attached = false;
        ix.attached = None;
        ix.segments = vec![
            SegEntry { seg: SegId::derive(1, 1, 99), version: Version(1 << 16), len: 1 << 20 },
            SegEntry { seg: SegId::derive(2, 5, 7), version: Version(2 << 16 | 3), len: 2 << 20 },
        ];
        let j = Json::parse(&index_to_json(&ix).encode()).unwrap();
        assert_eq!(index_from_json(&j), Ok(ix));
    }

    #[test]
    fn index_round_trip_with_parity() {
        let mut ix = IndexSegment::new(FileId(11), FileOptions::erasure_coded(2, 2, 4 << 20));
        ix.size = 1 << 20;
        ix.is_attached = false;
        ix.attached = None;
        ix.segments = vec![
            SegEntry { seg: SegId::derive(1, 1, 5), version: Version(1 << 16), len: 1 << 19 },
            SegEntry { seg: SegId::derive(1, 2, 5), version: Version(1 << 16), len: 1 << 19 },
        ];
        ix.parity = vec![
            SegEntry { seg: SegId::derive(1, 3, 5), version: Version(1 << 16), len: 1 << 19 },
            SegEntry { seg: SegId::derive(1, 4, 5), version: Version(1 << 16), len: 1 << 19 },
        ];
        let j = Json::parse(&index_to_json(&ix).encode()).unwrap();
        assert_eq!(index_from_json(&j), Ok(ix));

        // Old metadata without the parity/ec fields still parses.
        let mut ix = IndexSegment::new(FileId(12), FileOptions::default());
        ix.size = 7;
        let mut j = index_to_json(&ix);
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "parity");
        }
        assert_eq!(index_from_json(&j), Ok(ix));
    }

    #[test]
    fn hex_helpers() {
        // Golden vectors: the bytes on disk and on the wire may not change.
        assert_eq!(hex_encode(&[]), "");
        assert_eq!(hex_encode(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(hex_encode(&[0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef]), "0123456789abcdef");
        let all: Vec<u8> = (0..=255).collect();
        let want: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex_encode(&all), want);
        assert_eq!(hex_decode("00ff1a"), Some(vec![0x00, 0xff, 0x1a]));
        assert_eq!(hex_decode("00FF1A"), Some(vec![0x00, 0xff, 0x1a]));
        for bad in ["0g", "abc", "+f", " 1", "é"] {
            assert_eq!(hex_decode(bad), None, "{bad:?}");
        }
        for len in [0, 1, 60 << 10] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes));
        }
    }

    #[test]
    fn errors_name_the_offending_field() {
        // Missing field.
        let mut j = Json::parse(&options_to_json(&FileOptions::default()).encode()).unwrap();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "alpha");
        }
        assert_eq!(options_from_json(&j), Err(CodecError::MissingField("alpha")));

        // Wrong type.
        let j = Json::parse(&options_to_json(&FileOptions::default()).encode())
            .unwrap()
            .with("replication", "three");
        assert_eq!(options_from_json(&j), Err(CodecError::InvalidField("replication")));

        // Unknown enum tag, nested under `organization`.
        let e = FileEntry {
            file: FileId(1),
            version: Version(1),
            size: 0,
            is_dir: false,
            created_ns: 0,
            modified_ns: 0,
            options: FileOptions::default(),
        };
        let j = entry_to_json(&e)
            .with("options", options_to_json(&FileOptions::default()).with("organization", Json::obj().with("mode", "sideways")));
        assert_eq!(entry_from_json(&j), Err(CodecError::InvalidField("mode")));

        // Corrupt hex attachment.
        let mut ix = IndexSegment::new(FileId(42), FileOptions::default());
        ix.attached = Some(vec![1, 2, 3]);
        ix.is_attached = true;
        for bad in ["abc", "zz"] {
            let j = index_to_json(&ix).with("attached", bad);
            assert_eq!(index_from_json(&j), Err(CodecError::InvalidField("attached")));
        }
    }
}
