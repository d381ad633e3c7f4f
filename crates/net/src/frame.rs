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
//! covers the payload, except a checked blob's bytes (below). `kind`
//! distinguishes `Hello` control frames
//! (a joining node announcing its id and listen address, replacing the
//! simulator's Ethernet multicast with peer-list registration) from
//! protocol messages.
//!
//! The payload encoding is a tag byte per enum variant followed by the
//! fields in table order. Strings and byte blobs are u32
//! length-prefixed; `f64` travels as its IEEE-754 bit pattern;
//! `Option`/`Result` spend one tag byte; a `Vec` is a u32 count and its
//! items.
//!
//! **Checked blobs.** The bytes of a real [`WritePayload`] (`WriteShadow`,
//! `DirectWrite`), of a `ReadReply::Data` (`ReadSegR`, `ReadShadowR`) and
//! of a [`Transfer`]'s image (`FetchSegR`, `EcInstall`) are a checked
//! blob: `u32 len`, `u32 crc`, then the bytes, which their own CRC-32
//! covers and the frame's does not. The chunk's writer computes that CRC
//! once; a provider keeps it with the stored piece and returns it,
//! combined, with a read of whole pieces or a transfer (whose piece table
//! precedes the blob and must combine to its CRC), so serving costs no
//! pass over the bytes, and bytes changed at rest fail the reader's check.
//! A message has at most one checked blob. A provider keeps a segment at
//! rest (`seg/` values) in the same transfer layout, piece table included.
//!
//! Each layout is stated once. A private `Wire` trait (`put` into a
//! `Writer`, `get` from a `Reader`) is implemented directly only for the
//! primitives and the generic containers (`Box`, `Option`,
//! `Result<_, Error>`, `Vec`, tuples) and for the three types that carry
//! a checked blob. Every other struct and enum above them is one
//! `wire_struct!` / `wire_enum!` table: a row is the tag and the
//! field *names* in wire order, used verbatim as the pattern the encoder
//! destructures with and as the constructor the decoder fills, so both
//! directions come from the same tokens and the field types from the
//! definitions in `sorrento`. The encoder's `match` has no wildcard and
//! names every field: a new variant or field without a row is a compile
//! error, not a silent wire gap. The bytes are pinned by
//! `tests/tests/data/wire_v5.txt`; `MSG_TAGS` hands the row tags to the
//! property suite.
//!
//! A new message is five places, each enforced by the compiler or a
//! test: the `Msg` variant, its `dbg_kind` and its `wire_size` arms in
//! `proto.rs`; one row here under the next free tag; one `arb_msg` arm
//! in `tests/tests/frame_codec.rs` (its `unreachable!` fires for a row
//! without one); then regenerate the fixture, whose diff must only add
//! lines.
//!
//! `Tick`s — a node's own timers — are not messages to anyone else and
//! have no table. `Msg::Tick` encodes as its bare tag 0 (encoding stays
//! total and infallible) and tag 0 has no decode row: a timer frame from
//! the network is `UnknownTag { what: "msg", tag: 0 }`, which poisons
//! the stream and counts in `net_decode_errors` like any malformed frame.
//!
//! Copy discipline: encoding is single-pass — the header is reserved
//! up front, the payload is appended once while a streaming [`Crc32`]
//! folds in each byte (`seg/` values at rest skip the fold: their
//! kvdb record is checksummed already), and the length/checksum are
//! patched into the reserved header afterwards. A checked blob's bytes
//! are not appended: [`encode_msg_spliced`] hands them back as a splice,
//! a view the mesh's vectored write takes from where they lie (the
//! store's extent, the client's payload); [`encode_msg_into`] is the same
//! encode with the splice copied into place. Either reuses a caller
//! buffer (see [`crate::pool::BufPool`]) so the steady-state bulk path
//! allocates nothing per frame. Decoding hands blob fields out as
//! [`Bytes`] sub-views of the received payload instead of copying.

use bytes::Bytes;
use sorrento::membership::Heartbeat;
use sorrento::proto::{FileEntry, Msg, ReadReply};
use sorrento::store::{ReplicaImage, SegMeta, Transfer, WritePayload};
use sorrento::swim::{SwimState, SwimUpdate};
use sorrento::types::{
    EcParams, Error, FileId, FileOptions, Organization, PlacementPolicy, SegId, Version,
};
use sorrento_kvdb::{crc32, crc32_pieces, Crc32};
use sorrento_sim::NodeId;

/// Frame magic: "SRTO".
pub const MAGIC: [u8; 4] = *b"SRTO";
/// Current wire-format version. v2 added the erasure-coding fields
/// (`FileOptions::ec`, `SegMeta::ec`) and the `EcInstall`/`EcInstallR`
/// shard-repair messages; v3 added the SWIM gossip messages
/// (`SwimPing`/`SwimAck`/`SwimPingReq`) and the membership pull/query
/// family (`MembersPull`/`MembersDigest`/`MembersQuery`/`MembersR`); v4
/// made the bytes of a real write payload and of a read reply a checked
/// blob (its own CRC beside it, outside the frame CRC); v5 made a replica
/// transfer (`FetchSegR`, `EcInstall`) a piece table and a checked blob.
/// Older peers are refused at the header.
pub const VERSION: u8 = 5;
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
    /// crc32 of the payload but a checked blob's bytes.
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

/// Decode a payload against its validated header, checksums included:
/// the frame's, and a checked blob's own.
///
/// Blob fields in the returned [`Frame`] are zero-copy sub-views of
/// `payload` — the buffer read off the socket is the same allocation
/// the store eventually lands.
pub fn decode_payload(h: &Header, payload: &Bytes) -> Result<Frame, FrameError> {
    if payload.len() != h.payload_len as usize {
        return Err(FrameError::Truncated);
    }
    // The parse finds the checked blob; the checksums are judged before
    // its verdict, so damage is a checksum error whatever shape it gave
    // the bytes (a parse that stopped short of the blob leaves the frame
    // CRC over every byte).
    let mut r = Reader { buf: payload, pos: 0, blob: None };
    let frame = match h.kind {
        KIND_HELLO => r.string().map(|listen_addr| Frame::Hello { listen_addr }),
        KIND_MSG => Msg::get(&mut r).map(Frame::Msg),
        tag => Err(FrameError::UnknownTag { what: "frame kind", tag }),
    };
    let (start, end, blob_crc) = r.blob.unwrap_or((payload.len(), payload.len(), 0));
    let mut crc = Crc32::new();
    crc.update(&payload[..start]);
    crc.update(&payload[end..]);
    if crc.finalize() != h.crc {
        return Err(FrameError::ChecksumMismatch);
    }
    let frame = frame?;
    if r.pos != payload.len() {
        return Err(FrameError::TrailingBytes);
    }
    if r.blob.is_some() && crc32(&payload[start..end]) != blob_crc {
        return Err(FrameError::ChecksumMismatch);
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
/// steady-state cost is zero allocations per frame. The checked blob, if
/// any, is [`encode_msg_spliced`]'s splice, copied into place.
pub fn encode_msg_into(out: &mut Vec<u8>, sender: NodeId, msg: &Msg) {
    if let Some(splice) = encode_msg_spliced(out, sender, msg) {
        splice_in(out, splice);
    }
}

/// Encode a [`Msg`] frame but its checked blob, which comes back as
/// `(position in out, bytes)`: inserted there, it makes exactly what
/// [`encode_msg_into`] writes. A blob whose CRC the message carries costs
/// no pass over its bytes; one without has its CRC computed here.
pub fn encode_msg_spliced(out: &mut Vec<u8>, sender: NodeId, msg: &Msg) -> Option<(usize, Bytes)> {
    encode_into(out, sender, KIND_MSG, |w| msg.put(w))
}

/// Single-pass encode of a `Hello` frame into a reusable buffer.
pub fn encode_hello_into(out: &mut Vec<u8>, sender: NodeId, listen_addr: &str) {
    encode_into(out, sender, KIND_HELLO, |w| w.string(listen_addr));
}

fn encode_into(
    out: &mut Vec<u8>,
    sender: NodeId,
    kind: u8,
    f: impl FnOnce(&mut Writer<'_>),
) -> Option<(usize, Bytes)> {
    out.clear();
    out.resize(HEADER_LEN, 0);
    let mut crc = Crc32::new();
    let mut w = Writer { out: &mut *out, crc: Some(&mut crc), blob: None };
    f(&mut w);
    let blob = w.blob;
    let crc = crc.finalize();
    let payload_len = (out.len() - HEADER_LEN + blob.as_ref().map_or(0, |b| b.1.len())) as u32;
    debug_assert!(payload_len <= MAX_PAYLOAD);
    out[0..4].copy_from_slice(&MAGIC);
    out[4] = VERSION;
    out[5] = kind;
    out[6..10].copy_from_slice(&(sender.index() as u32).to_le_bytes());
    out[10..14].copy_from_slice(&payload_len.to_le_bytes());
    out[14..18].copy_from_slice(&crc.to_le_bytes());
    blob
}

/// Copy a splice's bytes into place: the contiguous frame.
fn splice_in(out: &mut Vec<u8>, (at, blob): (usize, Bytes)) {
    let mut tail = [0u8; BLOB_TAIL];
    let tail = &mut tail[..out.len() - at];
    tail.copy_from_slice(&out[at..]);
    out.truncate(at);
    out.reserve_exact(blob.len() + BLOB_TAIL); // growth would double for the tail
    out.extend_from_slice(&blob);
    out.extend_from_slice(tail);
}

/// The pre-single-pass assembly: build the payload in its own buffer,
/// re-scan it for the checksum, then copy header + payload into the
/// final frame. It shares the field tables, so it says nothing about the
/// layout (the committed byte fixture does); it is the oracle for the
/// reserved header, the streaming CRC and the patch-up afterwards.
#[doc(hidden)]
pub fn reference_encode_msg(sender: NodeId, msg: &Msg) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    let mut w = Writer { out: &mut payload, crc: None, blob: None };
    msg.put(&mut w);
    let blob = w.blob;
    // Without the blob's bytes, the payload is what the frame CRC covers.
    let crc = crc32(&payload);
    if let Some((at, bytes)) = blob {
        payload.splice(at..at, bytes.iter().copied());
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(KIND_MSG);
    out.extend_from_slice(&(sender.index() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------- writer

/// Room left after a blob for the fields that can follow it in one
/// message (a version, a `SegMeta`, a truncate flag).
const BLOB_TAIL: usize = 128;

/// Append-only payload writer. For a frame, every byte appended also
/// advances the streaming checksum, so by the time the payload is
/// written the CRC is already known; a caller that wants no checksum
/// (a `seg/` value) passes none and pays for none. A checked blob's
/// bytes are neither appended nor folded: `blob` records where they go.
struct Writer<'a> {
    out: &'a mut Vec<u8>,
    crc: Option<&'a mut Crc32>,
    blob: Option<(usize, Bytes)>,
}

impl Writer<'_> {
    fn put(&mut self, b: &[u8]) {
        if let Some(crc) = &mut self.crc {
            crc.update(b);
        }
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
        self.put(b);
    }
    /// A checked blob: `len`, its CRC (computed here if not carried), and
    /// the bytes as a splice at the current end.
    fn checked(&mut self, data: &Bytes, crc: Option<u32>) {
        self.u32(data.len() as u32);
        self.u32(crc.unwrap_or_else(|| crc32(data)));
        debug_assert!(self.blob.is_none(), "one checked blob per message");
        self.blob = Some((self.out.len(), data.clone()));
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
/// in place, blob fields come out as O(1) [`Bytes`] sub-views. `blob` is
/// the checked blob met, `(start, end, crc)`, for the decoder to verify.
struct Reader<'a> {
    buf: &'a Bytes,
    pos: usize,
    blob: Option<(usize, usize, u32)>,
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
        self.view(n)
    }
    fn checked(&mut self) -> Result<(Bytes, u32), FrameError> {
        let n = self.u32()? as usize;
        let crc = self.u32()?;
        let start = self.pos;
        let data = self.view(n)?;
        self.blob = Some((start, self.pos, crc));
        Ok((data, crc))
    }
    fn view(&mut self, n: usize) -> Result<Bytes, FrameError> {
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

// ---------------------------------------------------------- the Wire trait

/// A type with one wire layout. Both directions live in the same impl —
/// for everything below the primitives, in the same *table row* — so a
/// layout cannot be written one way and read another.
trait Wire: Sized {
    /// The tag bytes of a `wire_enum!`'s rows, in table order; empty
    /// for everything else.
    const TAGS: &'static [u8] = &[];
    fn put(&self, w: &mut Writer<'_>);
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError>;
}

/// The fixed-width primitives, by the name of their `Writer`/`Reader`
/// method.
macro_rules! wire_prim {
    ($($ty:ty => $method:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer<'_>) {
                w.$method(*self)
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                r.$method()
            }
        }
    )*};
}
wire_prim!(
    u8 => u8, u32 => u32, u64 => u64, u128 => u128, f64 => f64, bool => boolean, NodeId => node
);

impl Wire for String {
    fn put(&self, w: &mut Writer<'_>) {
        w.string(self)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.string()
    }
}

impl Wire for Bytes {
    fn put(&self, w: &mut Writer<'_>) {
        w.bytes(self)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.bytes()
    }
}

/// Nothing on the wire: the `Ok` of a `Result<(), Error>` reply.
impl Wire for () {
    fn put(&self, _: &mut Writer<'_>) {}
    fn get(_: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(())
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Writer<'_>) {
        (**self).put(w)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        T::get(r).map(Box::new)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer<'_>) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            tag => Err(FrameError::UnknownTag { what: "option", tag }),
        }
    }
}

impl<T: Wire> Wire for Result<T, Error> {
    fn put(&self, w: &mut Writer<'_>) {
        match self {
            Ok(v) => {
                w.u8(0);
                v.put(w);
            }
            Err(e) => {
                w.u8(1);
                e.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.u8()? {
            0 => Ok(Ok(T::get(r)?)),
            1 => Ok(Err(Error::get(r)?)),
            tag => Err(FrameError::UnknownTag { what: "result", tag }),
        }
    }
}

/// A u32 count, then the items.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer<'_>) {
        w.u32(self.len() as u32);
        self.iter().for_each(|item| item.put(w));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let n = r.u32()? as usize;
        // The count is the sender's word: reserve for at most 1,024 items
        // before any has parsed, and let `Truncated` end a longer lie.
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// Tuples are their members in order, nothing between.
macro_rules! wire_tuple {
    ($($t:ident)*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            #[allow(non_snake_case)]
            fn put(&self, w: &mut Writer<'_>) {
                let ($($t,)*) = self;
                $($t.put(w);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok(($($t::get(r)?,)*))
            }
        }
    };
}
wire_tuple!(A B);
wire_tuple!(A B C);
wire_tuple!(A B C D);

// ------------------------------------------------------------ field tables

/// `wire_struct!(Name { a, b })` or `wire_struct!(Name(a))`: the fields
/// in wire order. The row is used verbatim as the destructuring pattern
/// and as the constructor, so a field it omits does not compile, and the
/// field types come from the struct's definition.
macro_rules! wire_struct {
    ($ty:ident $(($($t:ident),*))? $({ $($f:ident),* })?) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer<'_>) {
                let $ty $(($($t),*))? $({ $($f),* })? = self;
                $($($t.put(w);)*)?
                $($($f.put(w);)*)?
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                $($(let $t = Wire::get(r)?;)*)?
                $($(let $f = Wire::get(r)?;)*)?
                Ok($ty $(($($t),*))? $({ $($f),* })?)
            }
        }
    };
}

/// `wire_enum!("what", Name { tag => Variant, tag => Variant(a), tag =>
/// Variant { a, b }, … })`: a tag byte, then the variant's fields in wire
/// order, each row used as pattern and constructor like a
/// `wire_struct!` row. The encoder's `match` has no wildcard — a variant
/// without a row does not compile — and the decoder's arms are the same
/// rows; any other tag is `UnknownTag { what, tag }`.
///
/// One leading `local tag => Variant(_)` row marks a variant that never
/// travels: it encodes as its bare tag, so encoding stays total and
/// infallible, and it has no decode arm, so that tag is refused like any
/// other unassigned one.
macro_rules! wire_enum {
    ($what:literal, $ty:ident {
        $(local $ltag:literal => $lvar:ident(_),)?
        $($tag:literal => $var:ident $(($($t:ident),*))? $({ $($f:ident),* })?),* $(,)?
    }) => {
        impl Wire for $ty {
            const TAGS: &'static [u8] = &[$($tag),*];
            fn put(&self, w: &mut Writer<'_>) {
                match self {
                    $($ty::$lvar(_) => w.u8($ltag),)?
                    $($ty::$var $(($($t),*))? $({ $($f),* })? => {
                        w.u8($tag);
                        $($($t.put(w);)*)?
                        $($($f.put(w);)*)?
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok(match r.u8()? {
                    $($tag => {
                        $($(let $t = Wire::get(r)?;)*)?
                        $($(let $f = Wire::get(r)?;)*)?
                        $ty::$var $(($($t),*))? $({ $($f),* })?
                    })*
                    tag => return Err(FrameError::UnknownTag { what: $what, tag }),
                })
            }
        }
    };
}

wire_struct!(SegId(id));
wire_struct!(FileId(id));
wire_struct!(Version(v));
wire_struct!(EcParams { k, m });
wire_struct!(FileOptions {
    replication,
    alpha,
    organization,
    placement,
    versioning_off,
    eager_commit,
    ec
});
wire_struct!(FileEntry { file, version, size, is_dir, created_ns, modified_ns, options });
wire_struct!(SegMeta { replication, alpha, policy, synthetic, ec });
wire_struct!(Heartbeat { load, available, capacity, machine, rack });
wire_struct!(SwimUpdate { node, state, incarnation, beat, payload });

wire_enum!("error", Error {
    0 => NotFound,
    1 => AlreadyExists,
    2 => VersionConflict,
    3 => NoSuchSegment,
    4 => Timeout,
    5 => OutOfSpace,
    6 => LeaseHeld,
    7 => InvalidMode,
    8 => NotADirectory,
    9 => NotEmpty,
    10 => ShadowExpired,
    11 => Unavailable,
    12 => DeadlineExceeded,
});
wire_enum!("organization", Organization {
    0 => Linear,
    1 => Striped { stripes, max_size },
    2 => Hybrid { group_stripes },
});
wire_enum!("placement", PlacementPolicy {
    0 => Random,
    1 => LoadAware,
    2 => LocalityDriven { threshold },
});
wire_enum!("swim state", SwimState { 0 => Alive, 1 => Suspect, 2 => Dead });

// The types that carry a checked blob are written out, not tabled: a
// real payload has one layout whether its CRC is known yet or not, and
// decodes `Checked`; a transfer's table is checked against its blob.
impl Wire for ReadReply {
    fn put(&self, w: &mut Writer<'_>) {
        match self {
            ReadReply::Data { len, data, version, crc } => {
                w.u8(0);
                len.put(w);
                w.boolean(data.is_some());
                if let Some(data) = data {
                    w.checked(data, *crc);
                }
                version.put(w);
            }
            ReadReply::Redirect(owners) => {
                w.u8(1);
                owners.put(w);
            }
            ReadReply::Err(e) => {
                w.u8(2);
                e.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(match r.u8()? {
            0 => {
                let len = Wire::get(r)?;
                let blob = if r.boolean()? { Some(r.checked()?) } else { None };
                let (data, crc) = blob.unzip();
                ReadReply::Data { len, data, version: Wire::get(r)?, crc }
            }
            1 => ReadReply::Redirect(Wire::get(r)?),
            2 => ReadReply::Err(Wire::get(r)?),
            tag => return Err(FrameError::UnknownTag { what: "read_reply", tag }),
        })
    }
}

impl Wire for WritePayload {
    fn put(&self, w: &mut Writer<'_>) {
        let (data, crc) = match self {
            WritePayload::Real(data) => (data, None),
            WritePayload::Checked { data, crc } => (data, Some(*crc)),
            WritePayload::Synthetic { len } => {
                w.u8(1);
                return len.put(w);
            }
        };
        w.u8(0);
        w.checked(data, crc);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.u8()? {
            0 => r.checked().map(|(data, crc)| WritePayload::Checked { data, crc }),
            1 => Ok(WritePayload::Synthetic { len: Wire::get(r)? }),
            tag => Err(FrameError::UnknownTag { what: "write_payload", tag }),
        }
    }
}

/// The image's fields, its piece table, then its bytes as a checked blob
/// whose CRC the table names: the sender reads only bytes no piece covers.
impl Wire for Transfer {
    fn put(&self, w: &mut Writer<'_>) {
        let Transfer { image: ReplicaImage { seg, version, len, data, meta }, pieces } = self;
        (*seg, *version, *len, *meta).put(w);
        pieces.put(w);
        w.boolean(data.is_some());
        if let Some(data) = data {
            w.checked(data, crc32_pieces(data, pieces));
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let (seg, version, len, meta) = Wire::get(r)?;
        let pieces: Vec<(u64, u64, u32)> = Wire::get(r)?;
        let (data, crc) = if r.boolean()? { r.checked().map(|(d, c)| (Some(d), c))? } else { (None, 0) };
        // `decode_payload` then holds the blob's bytes to `crc`, all that an
        // empty table (a rebuilt EC shard's) combines to: that is not checked.
        if !pieces.is_empty() && crc32_pieces(data.as_deref().unwrap_or_default(), &pieces) != Some(crc) {
            return Err(FrameError::ChecksumMismatch);
        }
        Ok(Transfer { image: ReplicaImage { seg, version, len, data, meta }, pieces })
    }
}

// Every message. Tags are forever: a new message takes the next free
// one, and a retired one is never reused.
wire_enum!("msg", Msg {
    // A node's own alarm (`RealCtx` keeps timers as values and
    // `Driver::flush` hands self-sends straight to the node): nothing
    // sends one, and one that arrives is refused.
    local 0 => Tick(_),
    1 => Heartbeat(hb),
    2 => NsLookup { req, path },
    3 => NsLookupR { req, result },
    4 => NsCreate { req, path, file, options },
    5 => NsCreateR { req, result },
    6 => NsMkdir { req, path },
    7 => NsMkdirR { req, result },
    8 => NsRemove { req, path },
    9 => NsRemoveR { req, result },
    10 => NsList { req, path },
    11 => NsListR { req, result },
    12 => NsCommitBegin { req, span, path, base },
    13 => NsCommitBeginR { req, result },
    14 => NsCommitEnd { req, span, path, commit, new_version, new_size },
    15 => NsCommitEndR { req, result },
    16 => LocQuery { req, seg },
    17 => LocQueryR { req, seg, owners },
    18 => LocUpsert { seg, owner, version, replication, bytes, deleted },
    19 => LocRefresh { owner, entries },
    20 => BackupQuery { req, seg },
    21 => BackupQueryR { req, seg, version },
    22 => ReadSeg { req, seg, offset, len, min_version, allow_redirect },
    23 => ReadSegR { req, reply },
    24 => CreateShadow { req, span, seg, base, meta },
    25 => CreateShadowR { req, result },
    26 => WriteShadow { req, shadow, offset, payload, truncate },
    27 => WriteShadowR { req, result },
    28 => ReadShadow { req, shadow, offset, len },
    29 => ReadShadowR { req, reply },
    30 => RenewShadow { shadow },
    31 => Prepare { req, span, items },
    32 => PrepareR { req, result },
    33 => Commit { req, span, items },
    34 => CommitR { req, result },
    35 => Abort { span, items },
    36 => DirectWrite { req, seg, offset, payload, meta },
    37 => DirectWriteR { req, result },
    38 => DeleteSeg { req, seg },
    39 => DeleteSegR { req, existed },
    40 => FetchSeg { req, seg },
    41 => FetchSegR { req, result },
    42 => SyncRequest { req, seg, source, bytes_hint },
    43 => SyncDone { req, seg, version, result },
    44 => MigrateTo { seg, source, bytes_hint },
    45 => MigrateDone { seg, ok },
    46 => StatsQuery { req },
    47 => StatsR { req, json },
    48 => ChaosCtl { req, seed, drop_permille, dup_permille, delay_permille, delay_us, partition },
    49 => ChaosCtlR { req },
    50 => TraceQuery { req, span },
    51 => TraceR { req, json },
    52 => EcInstall { req, xfer },
    53 => EcInstallR { req, seg, result },
    54 => NsRename { req, src, dst },
    55 => NsRenameR { req, result },
    56 => NsShardInstall { req, path, entry, xfer },
    57 => NsShardInstallR { req, result },
    58 => NsShardDrop { req, path, check_empty },
    59 => NsShardDropR { req, result },
    60 => ShardMapQuery { req },
    61 => ShardMapR { req, rows },
    62 => NsWalShip { shard, seq, ckpt, recs },
    63 => NsCatchup { shard, have_seq },
    64 => SwimPing { seq, origin, updates },
    65 => SwimAck { seq, origin, updates },
    66 => SwimPingReq { seq, target, origin, updates },
    67 => MembersPull { req },
    68 => MembersDigest { req, updates },
    69 => MembersQuery { req },
    70 => MembersR { req, json },
});

/// The wire tag of every [`Msg`] a peer may send, in table order: what
/// the property suite iterates, so a new row is exercised or fails there.
#[doc(hidden)]
pub const MSG_TAGS: &[u8] = Msg::TAGS;

/// Encode a [`Transfer`] at rest: the value under a `seg/` key in a
/// provider's kvdb, laid out as in `FetchSegR` (the image's fields, its
/// piece table, its bytes as a checked blob the table combines to), so a
/// rebooted provider serves its writers' CRCs. No frame checksum is
/// folded: the kvdb record that wraps the value carries its own.
pub fn encode_transfer_bytes(xfer: &Transfer) -> Vec<u8> {
    let data_len = xfer.image.data.as_ref().map_or(0, |d| d.len());
    let mut out = Vec::with_capacity(64 + 16 * xfer.pieces.len() + data_len);
    let mut w = Writer { out: &mut out, crc: None, blob: None };
    xfer.put(&mut w);
    if let Some(splice) = w.blob {
        splice_in(&mut out, splice);
    }
    out
}

/// [`encode_transfer_bytes`] of an image whose piece table is unknown:
/// its blob's CRC is computed over every byte. The benchmark's
/// persistence probe (`frame.image_encode_mb_s`) times this.
pub fn encode_image_bytes(img: &ReplicaImage) -> Vec<u8> {
    encode_transfer_bytes(&Transfer::from(img.clone()))
}

/// Decode a [`Transfer`] at rest, holding its bytes to the CRC its piece
/// table combines to. Copies the input into a shared allocation once
/// (this runs only on daemon recovery, not the data path) so the
/// image's blob can be a [`Bytes`] view.
pub fn decode_transfer_bytes(bytes: &[u8]) -> Result<Transfer, FrameError> {
    let buf = Bytes::copy_from_slice(bytes);
    let mut r = Reader { buf: &buf, pos: 0, blob: None };
    let xfer = Transfer::get(&mut r)?;
    if r.pos != r.buf.len() {
        return Err(FrameError::TrailingBytes);
    }
    if let Some((start, end, crc)) = r.blob {
        if crc32(&buf[start..end]) != crc {
            return Err(FrameError::ChecksumMismatch);
        }
    }
    Ok(xfer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorrento::proto::Tick;

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
                crc: None,
            },
        });
        let image = ReplicaImage {
            seg: SegId(42),
            version: Version(3),
            len: 3,
            data: Some(vec![7, 8, 9].into()),
            meta: SegMeta {
                replication: 2,
                alpha: 1.0,
                policy: PlacementPolicy::LoadAware,
                synthetic: false,
                ec: None,
            },
        };
        let pieces = vec![(1, 2, crc32(&[8, 9]))];
        roundtrip(Msg::FetchSegR { req: 4, result: Ok(Box::new(Transfer { image, pieces })) });
    }

    #[test]
    fn ec_messages_round_trip() {
        roundtrip(Msg::EcInstall {
            req: 21,
            xfer: Box::new(Transfer::from(ReplicaImage {
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
            })),
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
    }

    #[test]
    fn a_timer_encodes_as_a_bare_tag_that_decode_refuses() {
        // Timers are local. Encoding stays total, and what it makes of
        // one is exactly what a peer (this one included) turns away.
        let wire = encode_msg(NodeId::from_index(7), &Msg::Tick(Tick::Gc));
        assert_eq!(wire[HEADER_LEN..], [0]);
        let refused = decode_frame(&wire).unwrap_err();
        assert_eq!(refused, FrameError::UnknownTag { what: "msg", tag: 0 });
        assert!(!MSG_TAGS.contains(&0));
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
                crc: None,
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
