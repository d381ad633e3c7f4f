//! The binary wire format: length-prefixed, checksummed frames carrying
//! either a [`Msg`] or a `Hello` control frame.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! ┌────────┬─────────┬──────┬────────────┬─────────────┬──────────┬─────────┐
//! │ magic  │ version │ kind │ sender u32 │ payload len │ crc32    │ payload │
//! │ "SRTO" │ 1 byte  │ 1 B  │ (NodeId)   │ u32         │ u32      │ ...     │
//! └────────┴─────────┴──────┴────────────┴─────────────┴──────────┴─────────┘
//! ```
//!
//! The 18-byte header is fixed-size so a stream reader can read it
//! exactly, validate it, then read `payload len` more bytes. The crc32
//! covers the payload only. `kind` distinguishes `Hello` control frames
//! (a joining node announcing its id and listen address, replacing the
//! simulator's Ethernet multicast with peer-list registration) from
//! protocol messages.
//!
//! The payload encoding is a tag byte per enum variant followed by the
//! fields in declaration order. Strings and byte blobs are u32
//! length-prefixed; `f64` travels as its IEEE-754 bit pattern;
//! `Option`/`Result` spend one tag byte. The encoder matches every
//! [`Msg`] variant exhaustively — adding a variant without extending the
//! codec is a compile error, not a silent wire gap.
//!
//! Copy discipline: encoding is single-pass — the header is reserved
//! up front, the payload is appended once while a streaming [`Crc32`]
//! folds in each byte, and the length/checksum are patched into the
//! reserved header afterwards. [`encode_msg_into`] reuses a caller
//! buffer (see [`crate::pool::BufPool`]) so the steady-state bulk path
//! allocates nothing per frame. Decoding hands blob fields out as
//! [`Bytes`] sub-views of the received payload instead of copying.

use bytes::Bytes;
use sorrento::membership::Heartbeat;
use sorrento::proto::{FileEntry, Msg, ReadReply, Tick};
use sorrento::swim::{SwimState, SwimUpdate};
use sorrento::store::{ReplicaImage, SegMeta, ShadowId, WritePayload};
use sorrento::types::{
    EcParams, Error, FileId, FileOptions, Organization, PlacementPolicy, SegId, Version,
};
use sorrento_kvdb::{crc32, Crc32};
use sorrento_sim::NodeId;

/// Frame magic: "SRTO".
pub const MAGIC: [u8; 4] = *b"SRTO";
/// Current wire-format version. v2 added the erasure-coding fields
/// (`FileOptions::ec`, `SegMeta::ec`) and the `EcInstall`/`EcInstallR`
/// shard-repair messages; v3 added the SWIM gossip messages
/// (`SwimPing`/`SwimAck`/`SwimPingReq`) and the membership pull/query
/// family (`MembersPull`/`MembersDigest`/`MembersQuery`/`MembersR`).
/// Older peers are refused at the header.
pub const VERSION: u8 = 3;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 18;
/// Largest accepted payload (a full segment plus slack); guards the
/// receive-side allocation against corrupt or hostile length fields.
pub const MAX_PAYLOAD: u32 = (1 << 30) - 1;

const KIND_HELLO: u8 = 0;
const KIND_MSG: u8 = 1;

/// A decoded frame.
#[derive(Debug)]
pub enum Frame {
    /// Peer announcement: the sender (header id) listens at this
    /// address. Sent once per outbound connection so the receiver can
    /// route replies and multicasts back.
    Hello {
        /// The sender's `host:port` listen address.
        listen_addr: String,
    },
    /// A protocol message.
    Msg(Msg),
}

/// Why a frame failed to decode. Every malformed input maps to one of
/// these — the decoder never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the encoding claims.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// A frame from a newer (or corrupt) protocol revision.
    UnsupportedVersion(u8),
    /// Payload length field exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload does not match the header checksum.
    ChecksumMismatch,
    /// An enum tag byte with no assigned meaning; `what` names the enum.
    UnknownTag {
        /// Which enum the tag belongs to.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length-prefixed string is not UTF-8.
    InvalidUtf8,
    /// Well-formed value followed by leftover bytes.
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("frame truncated"),
            FrameError::BadMagic => f.write_str("bad frame magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Oversized(n) => write!(f, "payload length {n} exceeds limit"),
            FrameError::ChecksumMismatch => f.write_str("payload checksum mismatch"),
            FrameError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            FrameError::InvalidUtf8 => f.write_str("string is not UTF-8"),
            FrameError::TrailingBytes => f.write_str("trailing bytes after frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A validated frame header.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Sending node.
    pub sender: NodeId,
    /// Frame kind byte ([`Frame::Hello`] or [`Frame::Msg`]).
    pub kind: u8,
    /// Payload byte count that follows the header.
    pub payload_len: u32,
    /// crc32 of the payload.
    pub crc: u32,
}

/// Parse and validate a fixed-size header.
pub fn decode_header(buf: &[u8; HEADER_LEN]) -> Result<Header, FrameError> {
    if buf[0..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if buf[4] != VERSION {
        return Err(FrameError::UnsupportedVersion(buf[4]));
    }
    let kind = buf[5];
    if kind != KIND_HELLO && kind != KIND_MSG {
        return Err(FrameError::UnknownTag { what: "frame kind", tag: kind });
    }
    let sender = u32::from_le_bytes(buf[6..10].try_into().unwrap());
    let payload_len = u32::from_le_bytes(buf[10..14].try_into().unwrap());
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(payload_len));
    }
    let crc = u32::from_le_bytes(buf[14..18].try_into().unwrap());
    Ok(Header { sender: NodeId::from_index(sender as usize), kind, payload_len, crc })
}

/// Decode a payload against its validated header (checksum included).
///
/// Blob fields in the returned [`Frame`] are zero-copy sub-views of
/// `payload` — the buffer read off the socket is the same allocation
/// the store eventually lands.
pub fn decode_payload(h: &Header, payload: &Bytes) -> Result<Frame, FrameError> {
    if payload.len() != h.payload_len as usize {
        return Err(FrameError::Truncated);
    }
    if crc32(payload) != h.crc {
        return Err(FrameError::ChecksumMismatch);
    }
    let mut r = Reader { buf: payload, pos: 0 };
    let frame = match h.kind {
        KIND_HELLO => Frame::Hello { listen_addr: r.string()? },
        KIND_MSG => Frame::Msg(read_msg(&mut r)?),
        tag => return Err(FrameError::UnknownTag { what: "frame kind", tag }),
    };
    if r.pos != r.buf.len() {
        return Err(FrameError::TrailingBytes);
    }
    Ok(frame)
}

/// Decode one complete frame from a contiguous buffer. Copies the
/// payload region into a fresh shared allocation first; the streaming
/// receive path ([`crate::tcp`]) avoids that copy by reading straight
/// into a [`Bytes`] and calling [`decode_payload`].
pub fn decode_frame(buf: &[u8]) -> Result<(NodeId, Frame), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().unwrap();
    let h = decode_header(header)?;
    let frame = decode_payload(&h, &Bytes::copy_from_slice(&buf[HEADER_LEN..]))?;
    Ok((h.sender, frame))
}

/// Incremental frame decoder for a byte stream delivered in arbitrary
/// chunks (the readiness-driven mesh reads whatever the socket has).
///
/// One instance per connection. Bytes accumulate across calls until a
/// complete CRC-checked frame is available; malformed input surfaces as
/// the same typed [`FrameError`]s the one-shot decoder returns, never a
/// panic. After an error the decoder is poisoned — a byte stream has no
/// resync point, so the connection must be dropped.
///
/// Two feeding styles:
///
/// * **Zero-copy socket path**: read straight into [`StreamDecoder::spare`]
///   and commit with [`StreamDecoder::advance`]. Payload bytes land in
///   the allocation that becomes the frame's shared [`Bytes`] — no copy
///   between the socket and the store, same as the one-shot path.
/// * **Slice path**: [`StreamDecoder::feed`] an arbitrary chunk (tests,
///   replay); internally it copies into the same state machine.
pub struct StreamDecoder {
    state: DecodeState,
}

enum DecodeState {
    /// Accumulating the fixed-size header.
    Header { buf: [u8; HEADER_LEN], filled: usize },
    /// Header parsed; accumulating `payload_len` payload bytes.
    Payload { header: Header, buf: Vec<u8>, filled: usize },
    /// A decode error was returned; the stream is unusable.
    Poisoned,
}

impl StreamDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> StreamDecoder {
        StreamDecoder { state: DecodeState::Header { buf: [0; HEADER_LEN], filled: 0 } }
    }

    /// The buffer the next socket read should land in: the unfilled
    /// remainder of the current header or payload. Never empty (a
    /// zero-length payload completes inside [`StreamDecoder::advance`],
    /// so the payload state always needs at least one byte). Empty only
    /// after an error was returned.
    pub fn spare(&mut self) -> &mut [u8] {
        match &mut self.state {
            DecodeState::Header { buf, filled } => &mut buf[*filled..],
            DecodeState::Payload { buf, filled, .. } => &mut buf[*filled..],
            DecodeState::Poisoned => &mut [],
        }
    }

    /// Commit `n` bytes just read into [`StreamDecoder::spare`]. Returns
    /// a complete frame when one closes, `None` when more bytes are
    /// needed. `n` must not exceed `spare().len()`.
    pub fn advance(&mut self, n: usize) -> Result<Option<(NodeId, Frame)>, FrameError> {
        match &mut self.state {
            DecodeState::Header { buf, filled } => {
                *filled += n;
                debug_assert!(*filled <= HEADER_LEN);
                if *filled < HEADER_LEN {
                    return Ok(None);
                }
                let header = match decode_header(buf) {
                    Ok(h) => h,
                    Err(e) => {
                        self.state = DecodeState::Poisoned;
                        return Err(e);
                    }
                };
                if header.payload_len == 0 {
                    self.state = DecodeState::Header { buf: [0; HEADER_LEN], filled: 0 };
                    return finish(&mut self.state, &header, Bytes::new());
                }
                self.state = DecodeState::Payload {
                    header,
                    buf: vec![0; header.payload_len as usize],
                    filled: 0,
                };
                Ok(None)
            }
            DecodeState::Payload { header, buf, filled } => {
                *filled += n;
                debug_assert!(*filled <= buf.len());
                if *filled < buf.len() {
                    return Ok(None);
                }
                let header = *header;
                // Moving the Vec into a shared Bytes is an allocation
                // transfer, not a copy: blob fields decoded out of it
                // are sub-views, so the bytes read off the socket are
                // the ones the store lands.
                let payload = Bytes::from(std::mem::take(buf));
                self.state = DecodeState::Header { buf: [0; HEADER_LEN], filled: 0 };
                finish(&mut self.state, &header, payload)
            }
            DecodeState::Poisoned => Err(FrameError::Truncated),
        }
    }

    /// Feed a chunk cut at an arbitrary byte boundary, appending every
    /// frame it completes to `out`. On a malformed stream the frames
    /// decoded before the error are kept in `out` and the typed error is
    /// returned; further feeding keeps failing.
    pub fn feed(
        &mut self,
        mut chunk: &[u8],
        out: &mut Vec<(NodeId, Frame)>,
    ) -> Result<(), FrameError> {
        while !chunk.is_empty() {
            let spare = self.spare();
            if spare.is_empty() {
                return Err(FrameError::Truncated); // poisoned
            }
            let n = spare.len().min(chunk.len());
            spare[..n].copy_from_slice(&chunk[..n]);
            chunk = &chunk[n..];
            if let Some(frame) = self.advance(n)? {
                out.push(frame);
            }
        }
        Ok(())
    }

    /// True when no partial frame is buffered (a clean stream end).
    pub fn is_at_boundary(&self) -> bool {
        matches!(self.state, DecodeState::Header { filled: 0, .. })
    }
}

impl Default for StreamDecoder {
    fn default() -> StreamDecoder {
        StreamDecoder::new()
    }
}

fn finish(
    state: &mut DecodeState,
    header: &Header,
    payload: Bytes,
) -> Result<Option<(NodeId, Frame)>, FrameError> {
    match decode_payload(header, &payload) {
        Ok(frame) => Ok(Some((header.sender, frame))),
        Err(e) => {
            *state = DecodeState::Poisoned;
            Err(e)
        }
    }
}

/// Encode a [`Msg`] frame into a fresh buffer.
pub fn encode_msg(sender: NodeId, msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 64);
    encode_msg_into(&mut out, sender, msg);
    out
}

/// Encode a `Hello` control frame into a fresh buffer.
pub fn encode_hello(sender: NodeId, listen_addr: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 32);
    encode_hello_into(&mut out, sender, listen_addr);
    out
}

/// Single-pass encode of a [`Msg`] frame into a reusable buffer.
///
/// Clears `out`, reserves the fixed header, appends the payload while a
/// streaming CRC folds in each byte, then patches length and checksum
/// into the header — no second scan over the payload and no copy into a
/// final buffer. With a pooled `out` (see [`crate::pool::BufPool`]) the
/// steady-state cost is zero allocations per frame.
pub fn encode_msg_into(out: &mut Vec<u8>, sender: NodeId, msg: &Msg) {
    encode_into(out, sender, KIND_MSG, |w| write_msg(w, msg));
}

/// Single-pass encode of a `Hello` frame into a reusable buffer.
pub fn encode_hello_into(out: &mut Vec<u8>, sender: NodeId, listen_addr: &str) {
    encode_into(out, sender, KIND_HELLO, |w| w.string(listen_addr));
}

fn encode_into(out: &mut Vec<u8>, sender: NodeId, kind: u8, f: impl FnOnce(&mut Writer<'_>)) {
    out.clear();
    out.resize(HEADER_LEN, 0);
    let mut w = Writer { out: &mut *out, crc: Crc32::new() };
    f(&mut w);
    let crc = w.crc.finalize();
    let payload_len = (out.len() - HEADER_LEN) as u32;
    debug_assert!(payload_len <= MAX_PAYLOAD);
    out[0..4].copy_from_slice(&MAGIC);
    out[4] = VERSION;
    out[5] = kind;
    out[6..10].copy_from_slice(&(sender.index() as u32).to_le_bytes());
    out[10..14].copy_from_slice(&payload_len.to_le_bytes());
    out[14..18].copy_from_slice(&crc.to_le_bytes());
}

/// The pre-single-pass encoder: build the payload in its own buffer,
/// re-scan it for the checksum, then copy header + payload into the
/// final frame. Kept as the test oracle the single-pass encoder must
/// match byte for byte.
#[doc(hidden)]
pub fn reference_encode_msg(sender: NodeId, msg: &Msg) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    {
        let mut w = Writer { out: &mut payload, crc: Crc32::new() };
        write_msg(&mut w, msg);
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(KIND_MSG);
    out.extend_from_slice(&(sender.index() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------- writer

/// Room left after a blob for the fields that can follow it in one
/// message (a version, a `SegMeta`, a truncate flag).
const BLOB_TAIL: usize = 128;

/// Append-only payload writer: every byte appended also advances the
/// streaming checksum, so by the time the payload is written the CRC is
/// already known.
struct Writer<'a> {
    out: &'a mut Vec<u8>,
    crc: Crc32,
}

impl Writer<'_> {
    fn put(&mut self, b: &[u8]) {
        self.crc.update(b);
        self.out.extend_from_slice(b);
    }
    fn u8(&mut self, x: u8) {
        self.put(&[x]);
    }
    fn u32(&mut self, x: u32) {
        self.put(&x.to_le_bytes());
    }
    fn u64(&mut self, x: u64) {
        self.put(&x.to_le_bytes());
    }
    fn u128(&mut self, x: u128) {
        self.put(&x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn boolean(&mut self, x: bool) {
        self.u8(x as u8);
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        // A blob at least as large as the buffer: amortized growth would
        // allocate exactly what the blob needs and then double on the
        // first field after it (16 MiB for an 8 MiB extent). Reserve what
        // the frame needs instead; no message has more than `BLOB_TAIL`
        // bytes of fields after its blob.
        if b.len() >= self.out.capacity() {
            self.out.reserve_exact(b.len() + BLOB_TAIL);
        }
        self.put(b);
    }
    fn string(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    fn node(&mut self, n: NodeId) {
        self.u32(n.index() as u32);
    }
}

// ---------------------------------------------------------------- reader

/// Payload reader over a shared buffer: fixed-width fields are parsed
/// in place, blob fields come out as O(1) [`Bytes`] sub-views.
struct Reader<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let out = &self.buf.as_ref()[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, FrameError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn boolean(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(FrameError::UnknownTag { what: "bool", tag }),
        }
    }
    fn bytes(&mut self) -> Result<Bytes, FrameError> {
        let n = self.u32()? as usize;
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let out = self.buf.slice(self.pos..end);
        self.pos = end;
        Ok(out)
    }
    fn string(&mut self) -> Result<String, FrameError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        std::str::from_utf8(b).map(str::to_owned).map_err(|_| FrameError::InvalidUtf8)
    }
    fn node(&mut self) -> Result<NodeId, FrameError> {
        Ok(NodeId::from_index(self.u32()? as usize))
    }
}

// ------------------------------------------------- composite field codecs

fn write_opt<T>(w: &mut Writer, x: &Option<T>, f: impl FnOnce(&mut Writer, &T)) {
    match x {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            f(w, v);
        }
    }
}

fn read_opt<T>(
    r: &mut Reader<'_>,
    f: impl FnOnce(&mut Reader<'_>) -> Result<T, FrameError>,
) -> Result<Option<T>, FrameError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(f(r)?)),
        tag => Err(FrameError::UnknownTag { what: "option", tag }),
    }
}

fn write_result<T>(w: &mut Writer, x: &Result<T, Error>, f: impl FnOnce(&mut Writer, &T)) {
    match x {
        Ok(v) => {
            w.u8(0);
            f(w, v);
        }
        Err(e) => {
            w.u8(1);
            write_error(w, e);
        }
    }
}

fn read_result<T>(
    r: &mut Reader<'_>,
    f: impl FnOnce(&mut Reader<'_>) -> Result<T, FrameError>,
) -> Result<Result<T, Error>, FrameError> {
    match r.u8()? {
        0 => Ok(Ok(f(r)?)),
        1 => Ok(Err(read_error(r)?)),
        tag => Err(FrameError::UnknownTag { what: "result", tag }),
    }
}

fn write_error(w: &mut Writer, e: &Error) {
    w.u8(match e {
        Error::NotFound => 0,
        Error::AlreadyExists => 1,
        Error::VersionConflict => 2,
        Error::NoSuchSegment => 3,
        Error::Timeout => 4,
        Error::OutOfSpace => 5,
        Error::LeaseHeld => 6,
        Error::InvalidMode => 7,
        Error::NotADirectory => 8,
        Error::NotEmpty => 9,
        Error::ShadowExpired => 10,
        Error::Unavailable => 11,
        Error::DeadlineExceeded => 12,
    });
}

fn read_error(r: &mut Reader<'_>) -> Result<Error, FrameError> {
    Ok(match r.u8()? {
        0 => Error::NotFound,
        1 => Error::AlreadyExists,
        2 => Error::VersionConflict,
        3 => Error::NoSuchSegment,
        4 => Error::Timeout,
        5 => Error::OutOfSpace,
        6 => Error::LeaseHeld,
        7 => Error::InvalidMode,
        8 => Error::NotADirectory,
        9 => Error::NotEmpty,
        10 => Error::ShadowExpired,
        11 => Error::Unavailable,
        12 => Error::DeadlineExceeded,
        tag => return Err(FrameError::UnknownTag { what: "error", tag }),
    })
}

fn write_organization(w: &mut Writer, o: &Organization) {
    match o {
        Organization::Linear => w.u8(0),
        Organization::Striped { stripes, max_size } => {
            w.u8(1);
            w.u32(*stripes);
            w.u64(*max_size);
        }
        Organization::Hybrid { group_stripes } => {
            w.u8(2);
            w.u32(*group_stripes);
        }
    }
}

fn read_organization(r: &mut Reader<'_>) -> Result<Organization, FrameError> {
    Ok(match r.u8()? {
        0 => Organization::Linear,
        1 => Organization::Striped { stripes: r.u32()?, max_size: r.u64()? },
        2 => Organization::Hybrid { group_stripes: r.u32()? },
        tag => return Err(FrameError::UnknownTag { what: "organization", tag }),
    })
}

fn write_placement(w: &mut Writer, p: &PlacementPolicy) {
    match p {
        PlacementPolicy::Random => w.u8(0),
        PlacementPolicy::LoadAware => w.u8(1),
        PlacementPolicy::LocalityDriven { threshold } => {
            w.u8(2);
            w.f64(*threshold);
        }
    }
}

fn read_placement(r: &mut Reader<'_>) -> Result<PlacementPolicy, FrameError> {
    Ok(match r.u8()? {
        0 => PlacementPolicy::Random,
        1 => PlacementPolicy::LoadAware,
        2 => PlacementPolicy::LocalityDriven { threshold: r.f64()? },
        tag => return Err(FrameError::UnknownTag { what: "placement", tag }),
    })
}

fn write_ec(w: &mut Writer, ec: &Option<EcParams>) {
    write_opt(w, ec, |w, p| {
        w.u8(p.k);
        w.u8(p.m);
    });
}

fn read_ec(r: &mut Reader<'_>) -> Result<Option<EcParams>, FrameError> {
    read_opt(r, |r| Ok(EcParams { k: r.u8()?, m: r.u8()? }))
}

fn write_options(w: &mut Writer, o: &FileOptions) {
    w.u32(o.replication);
    w.f64(o.alpha);
    write_organization(w, &o.organization);
    write_placement(w, &o.placement);
    w.boolean(o.versioning_off);
    w.boolean(o.eager_commit);
    write_ec(w, &o.ec);
}

fn read_options(r: &mut Reader<'_>) -> Result<FileOptions, FrameError> {
    Ok(FileOptions {
        replication: r.u32()?,
        alpha: r.f64()?,
        organization: read_organization(r)?,
        placement: read_placement(r)?,
        versioning_off: r.boolean()?,
        eager_commit: r.boolean()?,
        ec: read_ec(r)?,
    })
}

fn write_entry(w: &mut Writer, e: &FileEntry) {
    w.u128(e.file.0);
    w.u64(e.version.0);
    w.u64(e.size);
    w.boolean(e.is_dir);
    w.u64(e.created_ns);
    w.u64(e.modified_ns);
    write_options(w, &e.options);
}

fn read_entry(r: &mut Reader<'_>) -> Result<FileEntry, FrameError> {
    Ok(FileEntry {
        file: FileId(r.u128()?),
        version: Version(r.u64()?),
        size: r.u64()?,
        is_dir: r.boolean()?,
        created_ns: r.u64()?,
        modified_ns: r.u64()?,
        options: read_options(r)?,
    })
}

fn write_owners(w: &mut Writer, owners: &[(NodeId, Version)]) {
    w.u32(owners.len() as u32);
    for (n, v) in owners {
        w.node(*n);
        w.u64(v.0);
    }
}

fn read_owners(r: &mut Reader<'_>) -> Result<Vec<(NodeId, Version)>, FrameError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push((r.node()?, Version(r.u64()?)));
    }
    Ok(out)
}

fn write_reply(w: &mut Writer, reply: &ReadReply) {
    match reply {
        ReadReply::Data { len, data, version } => {
            w.u8(0);
            w.u64(*len);
            write_opt(w, data, |w, d| w.bytes(d));
            w.u64(version.0);
        }
        ReadReply::Redirect(owners) => {
            w.u8(1);
            write_owners(w, owners);
        }
        ReadReply::Err(e) => {
            w.u8(2);
            write_error(w, e);
        }
    }
}

fn read_reply(r: &mut Reader<'_>) -> Result<ReadReply, FrameError> {
    Ok(match r.u8()? {
        0 => ReadReply::Data {
            len: r.u64()?,
            data: read_opt(r, |r| r.bytes())?,
            version: Version(r.u64()?),
        },
        1 => ReadReply::Redirect(read_owners(r)?),
        2 => ReadReply::Err(read_error(r)?),
        tag => return Err(FrameError::UnknownTag { what: "read_reply", tag }),
    })
}

fn write_payload(w: &mut Writer, p: &WritePayload) {
    match p {
        WritePayload::Real(bytes) => {
            w.u8(0);
            w.bytes(bytes);
        }
        WritePayload::Synthetic { len } => {
            w.u8(1);
            w.u64(*len);
        }
    }
}

fn read_payload(r: &mut Reader<'_>) -> Result<WritePayload, FrameError> {
    Ok(match r.u8()? {
        0 => WritePayload::Real(r.bytes()?),
        1 => WritePayload::Synthetic { len: r.u64()? },
        tag => return Err(FrameError::UnknownTag { what: "write_payload", tag }),
    })
}

fn write_meta(w: &mut Writer, m: &SegMeta) {
    w.u32(m.replication);
    w.f64(m.alpha);
    write_placement(w, &m.policy);
    w.boolean(m.synthetic);
    write_opt(w, &m.ec, |w, (k, m)| {
        w.u8(*k);
        w.u8(*m);
    });
}

fn read_meta(r: &mut Reader<'_>) -> Result<SegMeta, FrameError> {
    Ok(SegMeta {
        replication: r.u32()?,
        alpha: r.f64()?,
        policy: read_placement(r)?,
        synthetic: r.boolean()?,
        ec: read_opt(r, |r| Ok((r.u8()?, r.u8()?)))?,
    })
}

fn write_image(w: &mut Writer, img: &ReplicaImage) {
    w.u128(img.seg.0);
    w.u64(img.version.0);
    w.u64(img.len);
    write_opt(w, &img.data, |w, d| w.bytes(d));
    write_meta(w, &img.meta);
}

fn read_image(r: &mut Reader<'_>) -> Result<ReplicaImage, FrameError> {
    Ok(ReplicaImage {
        seg: SegId(r.u128()?),
        version: Version(r.u64()?),
        len: r.u64()?,
        data: read_opt(r, |r| r.bytes())?,
        meta: read_meta(r)?,
    })
}

fn write_heartbeat(w: &mut Writer, hb: &Heartbeat) {
    w.f64(hb.load);
    w.u64(hb.available);
    w.u64(hb.capacity);
    w.u32(hb.machine);
    w.u32(hb.rack);
}

fn read_heartbeat(r: &mut Reader<'_>) -> Result<Heartbeat, FrameError> {
    Ok(Heartbeat {
        load: r.f64()?,
        available: r.u64()?,
        capacity: r.u64()?,
        machine: r.u32()?,
        rack: r.u32()?,
    })
}

fn write_swim_updates(w: &mut Writer, updates: &[SwimUpdate]) {
    w.u32(updates.len() as u32);
    for u in updates {
        w.node(u.node);
        w.u8(match u.state {
            SwimState::Alive => 0,
            SwimState::Suspect => 1,
            SwimState::Dead => 2,
        });
        w.u64(u.incarnation);
        w.u64(u.beat);
        write_opt(w, &u.payload, write_heartbeat);
    }
}

fn read_swim_updates(r: &mut Reader<'_>) -> Result<Vec<SwimUpdate>, FrameError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(SwimUpdate {
            node: r.node()?,
            state: match r.u8()? {
                0 => SwimState::Alive,
                1 => SwimState::Suspect,
                2 => SwimState::Dead,
                tag => return Err(FrameError::UnknownTag { what: "swim state", tag }),
            },
            incarnation: r.u64()?,
            beat: r.u64()?,
            payload: read_opt(r, read_heartbeat)?,
        });
    }
    Ok(out)
}

fn write_tick(w: &mut Writer, t: &Tick) {
    match t {
        Tick::Heartbeat => w.u8(0),
        Tick::LocationRefresh => w.u8(1),
        Tick::JoinRefresh(n) => {
            w.u8(2);
            w.node(*n);
        }
        Tick::Gc => w.u8(3),
        Tick::RepairScan => w.u8(4),
        Tick::Migration => w.u8(5),
        Tick::MigrationContinue => w.u8(6),
        Tick::RpcTimeout(req) => {
            w.u8(7);
            w.u64(*req);
        }
        Tick::BackupDeadline(req) => {
            w.u8(8);
            w.u64(*req);
        }
        Tick::Membership => w.u8(9),
        Tick::NextOp => w.u8(10),
        Tick::AppendRetry => w.u8(11),
        Tick::CommitBeginRetry => w.u8(12),
        Tick::LeaseSweep => w.u8(13),
        Tick::OpDeadline(generation) => {
            w.u8(14);
            w.u64(*generation);
        }
        Tick::RpcResend(req) => {
            w.u8(15);
            w.u64(*req);
        }
        Tick::NsShip => w.u8(16),
        Tick::StandbyCheck => w.u8(17),
        Tick::ShardMapRefresh => w.u8(18),
        Tick::XShardTimeout(req) => {
            w.u8(19);
            w.u64(*req);
        }
        Tick::SwimProbe => w.u8(20),
        Tick::SwimAckTimeout(seq) => {
            w.u8(21);
            w.u64(*seq);
        }
        Tick::SwimProbeTimeout(seq) => {
            w.u8(22);
            w.u64(*seq);
        }
        Tick::SwimSuspectTimeout(node, incarnation) => {
            w.u8(23);
            w.node(*node);
            w.u64(*incarnation);
        }
        Tick::SwimSync => w.u8(24),
        Tick::GaugeExport => w.u8(25),
        Tick::MembersRefresh => w.u8(26),
    }
}

fn read_tick(r: &mut Reader<'_>) -> Result<Tick, FrameError> {
    Ok(match r.u8()? {
        0 => Tick::Heartbeat,
        1 => Tick::LocationRefresh,
        2 => Tick::JoinRefresh(r.node()?),
        3 => Tick::Gc,
        4 => Tick::RepairScan,
        5 => Tick::Migration,
        6 => Tick::MigrationContinue,
        7 => Tick::RpcTimeout(r.u64()?),
        8 => Tick::BackupDeadline(r.u64()?),
        9 => Tick::Membership,
        10 => Tick::NextOp,
        11 => Tick::AppendRetry,
        12 => Tick::CommitBeginRetry,
        13 => Tick::LeaseSweep,
        14 => Tick::OpDeadline(r.u64()?),
        15 => Tick::RpcResend(r.u64()?),
        16 => Tick::NsShip,
        17 => Tick::StandbyCheck,
        18 => Tick::ShardMapRefresh,
        19 => Tick::XShardTimeout(r.u64()?),
        20 => Tick::SwimProbe,
        21 => Tick::SwimAckTimeout(r.u64()?),
        22 => Tick::SwimProbeTimeout(r.u64()?),
        23 => Tick::SwimSuspectTimeout(r.node()?, r.u64()?),
        24 => Tick::SwimSync,
        25 => Tick::GaugeExport,
        26 => Tick::MembersRefresh,
        tag => return Err(FrameError::UnknownTag { what: "tick", tag }),
    })
}

fn write_shadow_items(w: &mut Writer, items: &[(ShadowId, Version)]) {
    w.u32(items.len() as u32);
    for (s, v) in items {
        w.u64(*s);
        w.u64(v.0);
    }
}

fn read_shadow_items(r: &mut Reader<'_>) -> Result<Vec<(ShadowId, Version)>, FrameError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push((r.u64()?, Version(r.u64()?)));
    }
    Ok(out)
}

/// Encode a standalone [`ReplicaImage`] (daemon segment persistence:
/// the value format under `seg/` keys in the node's kvdb).
pub fn encode_image_bytes(img: &ReplicaImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + img.data.as_ref().map_or(0, |d| d.len()));
    let mut w = Writer { out: &mut out, crc: Crc32::new() };
    write_image(&mut w, img);
    out
}

/// Decode a standalone [`ReplicaImage`]. Copies the input into a shared
/// allocation once (this runs only on daemon recovery, not the data
/// path) so the image's blob can be a [`Bytes`] view.
pub fn decode_image_bytes(bytes: &[u8]) -> Result<ReplicaImage, FrameError> {
    let buf = Bytes::copy_from_slice(bytes);
    let mut r = Reader { buf: &buf, pos: 0 };
    let img = read_image(&mut r)?;
    if r.pos != r.buf.len() {
        return Err(FrameError::TrailingBytes);
    }
    Ok(img)
}

// --------------------------------------------------------- the Msg codec

fn write_msg(w: &mut Writer, msg: &Msg) {
    match msg {
        Msg::Tick(t) => {
            w.u8(0);
            write_tick(w, t);
        }
        Msg::Heartbeat(hb) => {
            w.u8(1);
            write_heartbeat(w, hb);
        }
        Msg::NsLookup { req, path } => {
            w.u8(2);
            w.u64(*req);
            w.string(path);
        }
        Msg::NsLookupR { req, result } => {
            w.u8(3);
            w.u64(*req);
            write_result(w, result, write_entry);
        }
        Msg::NsCreate { req, path, file, options } => {
            w.u8(4);
            w.u64(*req);
            w.string(path);
            w.u128(file.0);
            write_options(w, options);
        }
        Msg::NsCreateR { req, result } => {
            w.u8(5);
            w.u64(*req);
            write_result(w, result, write_entry);
        }
        Msg::NsMkdir { req, path } => {
            w.u8(6);
            w.u64(*req);
            w.string(path);
        }
        Msg::NsMkdirR { req, result } => {
            w.u8(7);
            w.u64(*req);
            write_result(w, result, |_, ()| {});
        }
        Msg::NsRemove { req, path } => {
            w.u8(8);
            w.u64(*req);
            w.string(path);
        }
        Msg::NsRemoveR { req, result } => {
            w.u8(9);
            w.u64(*req);
            write_result(w, result, write_entry);
        }
        Msg::NsList { req, path } => {
            w.u8(10);
            w.u64(*req);
            w.string(path);
        }
        Msg::NsListR { req, result } => {
            w.u8(11);
            w.u64(*req);
            write_result(w, result, |w, names| {
                w.u32(names.len() as u32);
                for n in names {
                    w.string(n);
                }
            });
        }
        Msg::NsCommitBegin { req, span, path, base } => {
            w.u8(12);
            w.u64(*req);
            w.u64(*span);
            w.string(path);
            w.u64(base.0);
        }
        Msg::NsCommitBeginR { req, result } => {
            w.u8(13);
            w.u64(*req);
            write_result(w, result, |_, ()| {});
        }
        Msg::NsCommitEnd { req, span, path, commit, new_version, new_size } => {
            w.u8(14);
            w.u64(*req);
            w.u64(*span);
            w.string(path);
            w.boolean(*commit);
            w.u64(new_version.0);
            w.u64(*new_size);
        }
        Msg::NsCommitEndR { req, result } => {
            w.u8(15);
            w.u64(*req);
            write_result(w, result, |_, ()| {});
        }
        Msg::LocQuery { req, seg } => {
            w.u8(16);
            w.u64(*req);
            w.u128(seg.0);
        }
        Msg::LocQueryR { req, seg, owners } => {
            w.u8(17);
            w.u64(*req);
            w.u128(seg.0);
            write_owners(w, owners);
        }
        Msg::LocUpsert { seg, owner, version, replication, bytes, deleted } => {
            w.u8(18);
            w.u128(seg.0);
            w.node(*owner);
            w.u64(version.0);
            w.u32(*replication);
            w.u64(*bytes);
            w.boolean(*deleted);
        }
        Msg::LocRefresh { owner, entries } => {
            w.u8(19);
            w.node(*owner);
            w.u32(entries.len() as u32);
            for (seg, v, repl, bytes) in entries {
                w.u128(seg.0);
                w.u64(v.0);
                w.u32(*repl);
                w.u64(*bytes);
            }
        }
        Msg::BackupQuery { req, seg } => {
            w.u8(20);
            w.u64(*req);
            w.u128(seg.0);
        }
        Msg::BackupQueryR { req, seg, version } => {
            w.u8(21);
            w.u64(*req);
            w.u128(seg.0);
            w.u64(version.0);
        }
        Msg::ReadSeg { req, seg, offset, len, min_version, allow_redirect } => {
            w.u8(22);
            w.u64(*req);
            w.u128(seg.0);
            w.u64(*offset);
            w.u64(*len);
            write_opt(w, min_version, |w, v| w.u64(v.0));
            w.boolean(*allow_redirect);
        }
        Msg::ReadSegR { req, reply } => {
            w.u8(23);
            w.u64(*req);
            write_reply(w, reply);
        }
        Msg::CreateShadow { req, span, seg, base, meta } => {
            w.u8(24);
            w.u64(*req);
            w.u64(*span);
            w.u128(seg.0);
            write_opt(w, base, |w, v| w.u64(v.0));
            write_meta(w, meta);
        }
        Msg::CreateShadowR { req, result } => {
            w.u8(25);
            w.u64(*req);
            write_result(w, result, |w, s| w.u64(*s));
        }
        Msg::WriteShadow { req, shadow, offset, payload, truncate } => {
            w.u8(26);
            w.u64(*req);
            w.u64(*shadow);
            w.u64(*offset);
            write_payload(w, payload);
            w.boolean(*truncate);
        }
        Msg::WriteShadowR { req, result } => {
            w.u8(27);
            w.u64(*req);
            write_result(w, result, |_, ()| {});
        }
        Msg::ReadShadow { req, shadow, offset, len } => {
            w.u8(28);
            w.u64(*req);
            w.u64(*shadow);
            w.u64(*offset);
            w.u64(*len);
        }
        Msg::ReadShadowR { req, reply } => {
            w.u8(29);
            w.u64(*req);
            write_reply(w, reply);
        }
        Msg::RenewShadow { shadow } => {
            w.u8(30);
            w.u64(*shadow);
        }
        Msg::Prepare { req, span, items } => {
            w.u8(31);
            w.u64(*req);
            w.u64(*span);
            write_shadow_items(w, items);
        }
        Msg::PrepareR { req, result } => {
            w.u8(32);
            w.u64(*req);
            write_result(w, result, |_, ()| {});
        }
        Msg::Commit { req, span, items } => {
            w.u8(33);
            w.u64(*req);
            w.u64(*span);
            write_shadow_items(w, items);
        }
        Msg::CommitR { req, result } => {
            w.u8(34);
            w.u64(*req);
            write_result(w, result, |_, ()| {});
        }
        Msg::Abort { span, items } => {
            w.u8(35);
            w.u64(*span);
            w.u32(items.len() as u32);
            for s in items {
                w.u64(*s);
            }
        }
        Msg::DirectWrite { req, seg, offset, payload, meta } => {
            w.u8(36);
            w.u64(*req);
            w.u128(seg.0);
            w.u64(*offset);
            write_payload(w, payload);
            write_meta(w, meta);
        }
        Msg::DirectWriteR { req, result } => {
            w.u8(37);
            w.u64(*req);
            write_result(w, result, |_, ()| {});
        }
        Msg::DeleteSeg { req, seg } => {
            w.u8(38);
            w.u64(*req);
            w.u128(seg.0);
        }
        Msg::DeleteSegR { req, existed } => {
            w.u8(39);
            w.u64(*req);
            w.boolean(*existed);
        }
        Msg::FetchSeg { req, seg } => {
            w.u8(40);
            w.u64(*req);
            w.u128(seg.0);
        }
        Msg::FetchSegR { req, result } => {
            w.u8(41);
            w.u64(*req);
            write_result(w, result, |w, img| write_image(w, img));
        }
        Msg::SyncRequest { req, seg, source, bytes_hint } => {
            w.u8(42);
            w.u64(*req);
            w.u128(seg.0);
            w.node(*source);
            w.u64(*bytes_hint);
        }
        Msg::SyncDone { req, seg, version, result } => {
            w.u8(43);
            w.u64(*req);
            w.u128(seg.0);
            w.u64(version.0);
            write_result(w, result, |_, ()| {});
        }
        Msg::MigrateTo { seg, source, bytes_hint } => {
            w.u8(44);
            w.u128(seg.0);
            w.node(*source);
            w.u64(*bytes_hint);
        }
        Msg::MigrateDone { seg, ok } => {
            w.u8(45);
            w.u128(seg.0);
            w.boolean(*ok);
        }
        Msg::EcInstall { req, image } => {
            w.u8(52);
            w.u64(*req);
            write_image(w, image);
        }
        Msg::EcInstallR { req, seg, result } => {
            w.u8(53);
            w.u64(*req);
            w.u128(seg.0);
            write_result(w, result, |_, ()| {});
        }
        Msg::StatsQuery { req } => {
            w.u8(46);
            w.u64(*req);
        }
        Msg::StatsR { req, json } => {
            w.u8(47);
            w.u64(*req);
            w.string(json);
        }
        Msg::ChaosCtl {
            req,
            seed,
            drop_permille,
            dup_permille,
            delay_permille,
            delay_us,
            partition,
        } => {
            w.u8(48);
            w.u64(*req);
            w.u64(*seed);
            w.u32(*drop_permille);
            w.u32(*dup_permille);
            w.u32(*delay_permille);
            w.u64(*delay_us);
            w.u32(partition.len() as u32);
            for n in partition {
                w.node(*n);
            }
        }
        Msg::ChaosCtlR { req } => {
            w.u8(49);
            w.u64(*req);
        }
        Msg::TraceQuery { req, span } => {
            w.u8(50);
            w.u64(*req);
            w.u64(*span);
        }
        Msg::TraceR { req, json } => {
            w.u8(51);
            w.u64(*req);
            w.string(json);
        }
        Msg::NsRename { req, src, dst } => {
            w.u8(54);
            w.u64(*req);
            w.string(src);
            w.string(dst);
        }
        Msg::NsRenameR { req, result } => {
            w.u8(55);
            w.u64(*req);
            write_result(w, result, |_, ()| {});
        }
        Msg::NsShardInstall { req, path, entry, xfer } => {
            w.u8(56);
            w.u64(*req);
            w.string(path);
            write_entry(w, entry);
            w.boolean(*xfer);
        }
        Msg::NsShardInstallR { req, result } => {
            w.u8(57);
            w.u64(*req);
            write_result(w, result, |_, ()| {});
        }
        Msg::NsShardDrop { req, path, check_empty } => {
            w.u8(58);
            w.u64(*req);
            w.string(path);
            w.boolean(*check_empty);
        }
        Msg::NsShardDropR { req, result } => {
            w.u8(59);
            w.u64(*req);
            write_result(w, result, |_, ()| {});
        }
        Msg::ShardMapQuery { req } => {
            w.u8(60);
            w.u64(*req);
        }
        Msg::ShardMapR { req, rows } => {
            w.u8(61);
            w.u64(*req);
            w.u32(rows.len() as u32);
            for (shard, primary, standby) in rows {
                w.u32(*shard);
                w.node(*primary);
                write_opt(w, standby, |w, n| w.node(*n));
            }
        }
        Msg::NsWalShip { shard, seq, ckpt, recs } => {
            w.u8(62);
            w.u32(*shard);
            w.u64(*seq);
            write_opt(w, ckpt, |w, c| w.bytes(c));
            w.u32(recs.len() as u32);
            for rec in recs {
                w.bytes(rec);
            }
        }
        Msg::NsCatchup { shard, have_seq } => {
            w.u8(63);
            w.u32(*shard);
            w.u64(*have_seq);
        }
        Msg::SwimPing { seq, origin, updates } => {
            w.u8(64);
            w.u64(*seq);
            w.node(*origin);
            write_swim_updates(w, updates);
        }
        Msg::SwimAck { seq, origin, updates } => {
            w.u8(65);
            w.u64(*seq);
            w.node(*origin);
            write_swim_updates(w, updates);
        }
        Msg::SwimPingReq { seq, target, origin, updates } => {
            w.u8(66);
            w.u64(*seq);
            w.node(*target);
            w.node(*origin);
            write_swim_updates(w, updates);
        }
        Msg::MembersPull { req } => {
            w.u8(67);
            w.u64(*req);
        }
        Msg::MembersDigest { req, updates } => {
            w.u8(68);
            w.u64(*req);
            write_swim_updates(w, updates);
        }
        Msg::MembersQuery { req } => {
            w.u8(69);
            w.u64(*req);
        }
        Msg::MembersR { req, json } => {
            w.u8(70);
            w.u64(*req);
            w.string(json);
        }
    }
}

fn read_msg(r: &mut Reader<'_>) -> Result<Msg, FrameError> {
    Ok(match r.u8()? {
        0 => Msg::Tick(read_tick(r)?),
        1 => Msg::Heartbeat(read_heartbeat(r)?),
        2 => Msg::NsLookup { req: r.u64()?, path: r.string()? },
        3 => Msg::NsLookupR { req: r.u64()?, result: read_result(r, read_entry)? },
        4 => Msg::NsCreate {
            req: r.u64()?,
            path: r.string()?,
            file: FileId(r.u128()?),
            options: read_options(r)?,
        },
        5 => Msg::NsCreateR { req: r.u64()?, result: read_result(r, read_entry)? },
        6 => Msg::NsMkdir { req: r.u64()?, path: r.string()? },
        7 => Msg::NsMkdirR { req: r.u64()?, result: read_result(r, |_| Ok(()))? },
        8 => Msg::NsRemove { req: r.u64()?, path: r.string()? },
        9 => Msg::NsRemoveR { req: r.u64()?, result: read_result(r, read_entry)? },
        10 => Msg::NsList { req: r.u64()?, path: r.string()? },
        11 => Msg::NsListR {
            req: r.u64()?,
            result: read_result(r, |r| {
                let n = r.u32()? as usize;
                let mut names = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    names.push(r.string()?);
                }
                Ok(names)
            })?,
        },
        12 => Msg::NsCommitBegin {
            req: r.u64()?,
            span: r.u64()?,
            path: r.string()?,
            base: Version(r.u64()?),
        },
        13 => Msg::NsCommitBeginR { req: r.u64()?, result: read_result(r, |_| Ok(()))? },
        14 => Msg::NsCommitEnd {
            req: r.u64()?,
            span: r.u64()?,
            path: r.string()?,
            commit: r.boolean()?,
            new_version: Version(r.u64()?),
            new_size: r.u64()?,
        },
        15 => Msg::NsCommitEndR { req: r.u64()?, result: read_result(r, |_| Ok(()))? },
        16 => Msg::LocQuery { req: r.u64()?, seg: SegId(r.u128()?) },
        17 => Msg::LocQueryR {
            req: r.u64()?,
            seg: SegId(r.u128()?),
            owners: read_owners(r)?,
        },
        18 => Msg::LocUpsert {
            seg: SegId(r.u128()?),
            owner: r.node()?,
            version: Version(r.u64()?),
            replication: r.u32()?,
            bytes: r.u64()?,
            deleted: r.boolean()?,
        },
        19 => Msg::LocRefresh {
            owner: r.node()?,
            entries: {
                let n = r.u32()? as usize;
                let mut entries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    entries.push((SegId(r.u128()?), Version(r.u64()?), r.u32()?, r.u64()?));
                }
                entries
            },
        },
        20 => Msg::BackupQuery { req: r.u64()?, seg: SegId(r.u128()?) },
        21 => Msg::BackupQueryR {
            req: r.u64()?,
            seg: SegId(r.u128()?),
            version: Version(r.u64()?),
        },
        22 => Msg::ReadSeg {
            req: r.u64()?,
            seg: SegId(r.u128()?),
            offset: r.u64()?,
            len: r.u64()?,
            min_version: read_opt(r, |r| Ok(Version(r.u64()?)))?,
            allow_redirect: r.boolean()?,
        },
        23 => Msg::ReadSegR { req: r.u64()?, reply: read_reply(r)? },
        24 => Msg::CreateShadow {
            req: r.u64()?,
            span: r.u64()?,
            seg: SegId(r.u128()?),
            base: read_opt(r, |r| Ok(Version(r.u64()?)))?,
            meta: read_meta(r)?,
        },
        25 => Msg::CreateShadowR { req: r.u64()?, result: read_result(r, |r| r.u64())? },
        26 => Msg::WriteShadow {
            req: r.u64()?,
            shadow: r.u64()?,
            offset: r.u64()?,
            payload: read_payload(r)?,
            truncate: r.boolean()?,
        },
        27 => Msg::WriteShadowR { req: r.u64()?, result: read_result(r, |_| Ok(()))? },
        28 => Msg::ReadShadow {
            req: r.u64()?,
            shadow: r.u64()?,
            offset: r.u64()?,
            len: r.u64()?,
        },
        29 => Msg::ReadShadowR { req: r.u64()?, reply: read_reply(r)? },
        30 => Msg::RenewShadow { shadow: r.u64()? },
        31 => Msg::Prepare { req: r.u64()?, span: r.u64()?, items: read_shadow_items(r)? },
        32 => Msg::PrepareR { req: r.u64()?, result: read_result(r, |_| Ok(()))? },
        33 => Msg::Commit { req: r.u64()?, span: r.u64()?, items: read_shadow_items(r)? },
        34 => Msg::CommitR { req: r.u64()?, result: read_result(r, |_| Ok(()))? },
        35 => Msg::Abort {
            span: r.u64()?,
            items: {
                let n = r.u32()? as usize;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(r.u64()?);
                }
                items
            },
        },
        36 => Msg::DirectWrite {
            req: r.u64()?,
            seg: SegId(r.u128()?),
            offset: r.u64()?,
            payload: read_payload(r)?,
            meta: read_meta(r)?,
        },
        37 => Msg::DirectWriteR { req: r.u64()?, result: read_result(r, |_| Ok(()))? },
        38 => Msg::DeleteSeg { req: r.u64()?, seg: SegId(r.u128()?) },
        39 => Msg::DeleteSegR { req: r.u64()?, existed: r.boolean()? },
        40 => Msg::FetchSeg { req: r.u64()?, seg: SegId(r.u128()?) },
        41 => Msg::FetchSegR {
            req: r.u64()?,
            result: read_result(r, |r| Ok(Box::new(read_image(r)?)))?,
        },
        42 => Msg::SyncRequest {
            req: r.u64()?,
            seg: SegId(r.u128()?),
            source: r.node()?,
            bytes_hint: r.u64()?,
        },
        43 => Msg::SyncDone {
            req: r.u64()?,
            seg: SegId(r.u128()?),
            version: Version(r.u64()?),
            result: read_result(r, |_| Ok(()))?,
        },
        44 => Msg::MigrateTo {
            seg: SegId(r.u128()?),
            source: r.node()?,
            bytes_hint: r.u64()?,
        },
        45 => Msg::MigrateDone { seg: SegId(r.u128()?), ok: r.boolean()? },
        46 => Msg::StatsQuery { req: r.u64()? },
        47 => Msg::StatsR { req: r.u64()?, json: r.string()? },
        48 => Msg::ChaosCtl {
            req: r.u64()?,
            seed: r.u64()?,
            drop_permille: r.u32()?,
            dup_permille: r.u32()?,
            delay_permille: r.u32()?,
            delay_us: r.u64()?,
            partition: {
                let n = r.u32()? as usize;
                let mut peers = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    peers.push(r.node()?);
                }
                peers
            },
        },
        49 => Msg::ChaosCtlR { req: r.u64()? },
        50 => Msg::TraceQuery { req: r.u64()?, span: r.u64()? },
        51 => Msg::TraceR { req: r.u64()?, json: r.string()? },
        52 => Msg::EcInstall {
            req: r.u64()?,
            image: Box::new(read_image(r)?),
        },
        53 => Msg::EcInstallR {
            req: r.u64()?,
            seg: SegId(r.u128()?),
            result: read_result(r, |_| Ok(()))?,
        },
        54 => Msg::NsRename { req: r.u64()?, src: r.string()?, dst: r.string()? },
        55 => Msg::NsRenameR { req: r.u64()?, result: read_result(r, |_| Ok(()))? },
        56 => Msg::NsShardInstall {
            req: r.u64()?,
            path: r.string()?,
            entry: read_entry(r)?,
            xfer: r.boolean()?,
        },
        57 => Msg::NsShardInstallR { req: r.u64()?, result: read_result(r, |_| Ok(()))? },
        58 => Msg::NsShardDrop { req: r.u64()?, path: r.string()?, check_empty: r.boolean()? },
        59 => Msg::NsShardDropR { req: r.u64()?, result: read_result(r, |_| Ok(()))? },
        60 => Msg::ShardMapQuery { req: r.u64()? },
        61 => Msg::ShardMapR {
            req: r.u64()?,
            rows: {
                let n = r.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    rows.push((r.u32()?, r.node()?, read_opt(r, |r| r.node())?));
                }
                rows
            },
        },
        62 => Msg::NsWalShip {
            shard: r.u32()?,
            seq: r.u64()?,
            ckpt: read_opt(r, |r| r.bytes())?,
            recs: {
                let n = r.u32()? as usize;
                let mut recs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    recs.push(r.bytes()?);
                }
                recs
            },
        },
        63 => Msg::NsCatchup { shard: r.u32()?, have_seq: r.u64()? },
        64 => Msg::SwimPing {
            seq: r.u64()?,
            origin: r.node()?,
            updates: read_swim_updates(r)?,
        },
        65 => Msg::SwimAck {
            seq: r.u64()?,
            origin: r.node()?,
            updates: read_swim_updates(r)?,
        },
        66 => Msg::SwimPingReq {
            seq: r.u64()?,
            target: r.node()?,
            origin: r.node()?,
            updates: read_swim_updates(r)?,
        },
        67 => Msg::MembersPull { req: r.u64()? },
        68 => Msg::MembersDigest { req: r.u64()?, updates: read_swim_updates(r)? },
        69 => Msg::MembersQuery { req: r.u64()? },
        70 => Msg::MembersR { req: r.u64()?, json: r.string()? },
        tag => return Err(FrameError::UnknownTag { what: "msg", tag }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        let me = NodeId::from_index(7);
        let bytes = encode_msg(me, &msg);
        // The retired two-pass encoder is the oracle the single-pass
        // pooled encoder must match byte for byte.
        assert_eq!(bytes, reference_encode_msg(me, &msg));
        let (sender, frame) = decode_frame(&bytes).expect("decode");
        assert_eq!(sender, me);
        let Frame::Msg(back) = frame else { panic!("not a msg frame") };
        // Msg has no PartialEq: byte-exact re-encode is the equality proof.
        assert_eq!(encode_msg(me, &back), bytes);
    }

    #[test]
    fn representative_messages_round_trip() {
        roundtrip(Msg::NsLookup { req: 1, path: "/a/b".into() });
        roundtrip(Msg::Heartbeat(Heartbeat {
            load: 0.25,
            available: 10,
            capacity: 20,
            machine: 1,
            rack: 2,
        }));
        roundtrip(Msg::ReadSegR {
            req: 9,
            reply: ReadReply::Data {
                len: 3,
                data: Some(vec![1, 2, 3].into()),
                version: Version(5),
            },
        });
        roundtrip(Msg::FetchSegR {
            req: 4,
            result: Ok(Box::new(ReplicaImage {
                seg: SegId(42),
                version: Version(3),
                len: 2,
                data: Some(vec![7, 8].into()),
                meta: SegMeta {
                    replication: 2,
                    alpha: 1.0,
                    policy: PlacementPolicy::LoadAware,
                    synthetic: false,
                    ec: None,
                },
            })),
        });
    }

    #[test]
    fn ec_messages_round_trip() {
        roundtrip(Msg::EcInstall {
            req: 21,
            image: Box::new(ReplicaImage {
                seg: SegId(77),
                version: Version(4),
                len: 5,
                data: Some(vec![1, 2, 3, 4, 5].into()),
                meta: SegMeta {
                    replication: 1,
                    alpha: 0.5,
                    policy: PlacementPolicy::LoadAware,
                    synthetic: false,
                    ec: Some((4, 2)),
                },
            }),
        });
        roundtrip(Msg::EcInstallR { req: 21, seg: SegId(77), result: Ok(()) });
        roundtrip(Msg::EcInstallR { req: 22, seg: SegId(78), result: Err(Error::OutOfSpace) });
        // EC-bearing options travel inside create/lookup messages.
        roundtrip(Msg::NsCreate {
            req: 5,
            path: "/ec".into(),
            file: FileId(9),
            options: FileOptions::erasure_coded(4, 2, 1 << 20),
        });
    }

    #[test]
    fn resilience_messages_round_trip() {
        roundtrip(Msg::ChaosCtl {
            req: 11,
            seed: 0xC0FFEE,
            drop_permille: 100,
            dup_permille: 20,
            delay_permille: 50,
            delay_us: 1500,
            partition: vec![NodeId::from_index(2), NodeId::from_index(5)],
        });
        roundtrip(Msg::ChaosCtl {
            req: 12,
            seed: 0,
            drop_permille: 0,
            dup_permille: 0,
            delay_permille: 0,
            delay_us: 0,
            partition: Vec::new(),
        });
        roundtrip(Msg::ChaosCtlR { req: 11 });
        // New tick variants (never on the wire in practice, but the codec
        // must stay total over Msg).
        roundtrip(Msg::Tick(Tick::OpDeadline(7)));
        roundtrip(Msg::Tick(Tick::RpcResend(99)));
        // New error variants travel inside any Result-bearing reply.
        roundtrip(Msg::WriteShadowR { req: 1, result: Err(Error::Unavailable) });
        roundtrip(Msg::CommitR { req: 2, result: Err(Error::DeadlineExceeded) });
    }

    #[test]
    fn sharding_and_standby_messages_round_trip() {
        let entry = FileEntry {
            file: FileId(11),
            version: Version(2),
            size: 0,
            is_dir: true,
            created_ns: 5,
            modified_ns: 6,
            options: FileOptions::default(),
        };
        roundtrip(Msg::NsRename { req: 1, src: "/a/x".into(), dst: "/b/y".into() });
        roundtrip(Msg::NsRenameR { req: 1, result: Ok(()) });
        roundtrip(Msg::NsRenameR { req: 2, result: Err(Error::NotFound) });
        roundtrip(Msg::NsShardInstall { req: 3, path: "/a".into(), entry, xfer: false });
        roundtrip(Msg::NsShardInstallR { req: 3, result: Err(Error::AlreadyExists) });
        roundtrip(Msg::NsShardDrop { req: 4, path: "/a".into(), check_empty: true });
        roundtrip(Msg::NsShardDropR { req: 4, result: Err(Error::NotEmpty) });
        roundtrip(Msg::ShardMapQuery { req: 5 });
        roundtrip(Msg::ShardMapR {
            req: 5,
            rows: vec![
                (0, NodeId::from_index(0), Some(NodeId::from_index(9))),
                (1, NodeId::from_index(1), None),
            ],
        });
        roundtrip(Msg::NsWalShip {
            shard: 1,
            seq: 7,
            ckpt: Some(vec![1, 2, 3].into()),
            recs: vec![vec![4, 5].into(), Vec::new().into()],
        });
        roundtrip(Msg::NsWalShip { shard: 0, seq: 8, ckpt: None, recs: Vec::new() });
        roundtrip(Msg::NsCatchup { shard: 1, have_seq: 6 });
        roundtrip(Msg::Tick(Tick::NsShip));
        roundtrip(Msg::Tick(Tick::StandbyCheck));
        roundtrip(Msg::Tick(Tick::ShardMapRefresh));
        roundtrip(Msg::Tick(Tick::XShardTimeout(12)));
    }

    #[test]
    fn membership_messages_round_trip() {
        let hb = Heartbeat { load: 0.5, available: 100, capacity: 200, machine: 3, rack: 1 };
        let updates = vec![
            SwimUpdate {
                node: NodeId::from_index(1),
                state: SwimState::Alive,
                incarnation: 2,
                beat: 17,
                payload: Some(hb),
            },
            SwimUpdate {
                node: NodeId::from_index(4),
                state: SwimState::Suspect,
                incarnation: 0,
                beat: 0,
                payload: None,
            },
            SwimUpdate {
                node: NodeId::from_index(9),
                state: SwimState::Dead,
                incarnation: 7,
                beat: 3,
                payload: None,
            },
        ];
        roundtrip(Msg::SwimPing {
            seq: 1,
            origin: NodeId::from_index(2),
            updates: updates.clone(),
        });
        roundtrip(Msg::SwimPing { seq: 2, origin: NodeId::from_index(2), updates: Vec::new() });
        roundtrip(Msg::SwimAck {
            seq: 1,
            origin: NodeId::from_index(2),
            updates: updates.clone(),
        });
        roundtrip(Msg::SwimPingReq {
            seq: 3,
            target: NodeId::from_index(5),
            origin: NodeId::from_index(2),
            updates: updates.clone(),
        });
        roundtrip(Msg::MembersPull { req: 8 });
        roundtrip(Msg::MembersDigest { req: 8, updates });
        roundtrip(Msg::MembersQuery { req: 9 });
        roundtrip(Msg::MembersR { req: 9, json: "{\"mode\":\"swim\"}".into() });
        roundtrip(Msg::Tick(Tick::SwimProbe));
        roundtrip(Msg::Tick(Tick::SwimAckTimeout(4)));
        roundtrip(Msg::Tick(Tick::SwimProbeTimeout(5)));
        roundtrip(Msg::Tick(Tick::SwimSuspectTimeout(NodeId::from_index(6), 2)));
        roundtrip(Msg::Tick(Tick::SwimSync));
        roundtrip(Msg::Tick(Tick::GaugeExport));
        roundtrip(Msg::Tick(Tick::MembersRefresh));
    }

    #[test]
    fn decoded_blobs_alias_the_received_payload() {
        // A data-bearing reply decoded via decode_payload must hand the
        // blob out as a sub-view of the wire buffer, not a copy.
        let msg = Msg::ReadSegR {
            req: 1,
            reply: ReadReply::Data {
                len: 4,
                data: Some(vec![9, 9, 9, 9].into()),
                version: Version(1),
            },
        };
        let wire = encode_msg(NodeId::from_index(1), &msg);
        let header: &[u8; HEADER_LEN] = wire[..HEADER_LEN].try_into().unwrap();
        let h = decode_header(header).unwrap();
        let payload = Bytes::copy_from_slice(&wire[HEADER_LEN..]);
        let payload_ptr_range =
            payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
        let Frame::Msg(Msg::ReadSegR {
            reply: ReadReply::Data { data: Some(blob), .. },
            ..
        }) = decode_payload(&h, &payload).unwrap()
        else {
            panic!("wrong frame shape");
        };
        assert_eq!(&blob[..], &[9, 9, 9, 9]);
        assert!(payload_ptr_range.contains(&(blob.as_ptr() as usize)));
    }

    #[test]
    fn encode_into_reuses_the_buffer() {
        let me = NodeId::from_index(2);
        let big = Msg::StatsR { req: 1, json: "x".repeat(512) };
        let mut buf = Vec::new();
        encode_msg_into(&mut buf, me, &big);
        assert_eq!(buf, encode_msg(me, &big));
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        // A smaller message re-encoded into the same buffer must not
        // reallocate.
        encode_msg_into(&mut buf, me, &Msg::StatsQuery { req: 2 });
        assert_eq!(buf, encode_msg(me, &Msg::StatsQuery { req: 2 }));
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);
    }

    #[test]
    fn hello_round_trips() {
        let bytes = encode_hello(NodeId::from_index(3), "127.0.0.1:9000");
        let (sender, frame) = decode_frame(&bytes).unwrap();
        assert_eq!(sender, NodeId::from_index(3));
        match frame {
            Frame::Hello { listen_addr } => assert_eq!(listen_addr, "127.0.0.1:9000"),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let bytes = encode_msg(NodeId::from_index(0), &Msg::StatsQuery { req: 1 });
        assert!(matches!(decode_frame(&bytes[..4]), Err(FrameError::Truncated)));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadMagic)));
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(decode_frame(&bad), Err(FrameError::UnsupportedVersion(99))));
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert!(matches!(decode_frame(&bad), Err(FrameError::ChecksumMismatch)));
    }

    #[test]
    fn stream_decoder_reassembles_split_frames() {
        let a = encode_msg(NodeId::from_index(1), &Msg::StatsQuery { req: 7 });
        let b = encode_hello(NodeId::from_index(2), "127.0.0.1:9000");
        let mut wire = a.clone();
        wire.extend_from_slice(&b);
        // Byte-at-a-time is the worst possible fragmentation.
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        for byte in &wire {
            dec.feed(std::slice::from_ref(byte), &mut out).unwrap();
        }
        assert!(dec.is_at_boundary());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, NodeId::from_index(1));
        assert!(matches!(out[0].1, Frame::Msg(Msg::StatsQuery { req: 7 })));
        assert_eq!(out[1].0, NodeId::from_index(2));
        match &out[1].1 {
            Frame::Hello { listen_addr } => assert_eq!(listen_addr, "127.0.0.1:9000"),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn stream_decoder_poisons_on_corruption() {
        let mut wire = encode_msg(NodeId::from_index(0), &Msg::StatsQuery { req: 1 });
        *wire.last_mut().unwrap() ^= 0xff;
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        assert_eq!(dec.feed(&wire, &mut out), Err(FrameError::ChecksumMismatch));
        assert!(out.is_empty());
        // Once poisoned, it stays poisoned (connection must be dropped).
        assert!(dec.feed(&[0u8; 4], &mut out).is_err());
    }

    #[test]
    fn stream_decoder_spare_advance_matches_feed() {
        let wire = encode_msg(NodeId::from_index(5), &Msg::StatsR { req: 2, json: "x".repeat(300) });
        let mut dec = StreamDecoder::new();
        let mut fed = 0usize;
        let mut got = None;
        while fed < wire.len() {
            let spare = dec.spare();
            assert!(!spare.is_empty());
            let n = spare.len().min(wire.len() - fed).min(7); // ragged reads
            spare[..n].copy_from_slice(&wire[fed..fed + n]);
            fed += n;
            if let Some(frame) = dec.advance(n).unwrap() {
                got = Some(frame);
            }
        }
        let (sender, frame) = got.expect("frame completed");
        assert_eq!(sender, NodeId::from_index(5));
        assert!(matches!(frame, Frame::Msg(Msg::StatsR { req: 2, .. })));
    }
}
