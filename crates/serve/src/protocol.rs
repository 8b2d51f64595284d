//! The `tkdc-serve` wire protocol: versioned, length-prefixed binary
//! frames (documented normatively in `DESIGN.md` §"Serving layer").
//!
//! ## Framing
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! u32 LE body_len | body
//! body = u8 protocol_version | u8 tag | payload
//! ```
//!
//! `body_len` counts the body only (version byte included) and must not
//! exceed [`MAX_FRAME_BYTES`]; oversized or short frames are rejected
//! before any allocation proportional to the claimed length is trusted.
//! All integers are little-endian; all floats are IEEE-754 binary64 LE.
//!
//! ## Requests (`tag` = opcode)
//!
//! | opcode | request | payload |
//! |--------|---------|---------|
//! | 0 | `Ping` | u64 nonce (echoed back) |
//! | 1 | `Classify` | u32 rows, u32 cols, rows·cols f64 |
//! | 2 | `Density` | u32 rows, u32 cols, rows·cols f64 |
//! | 3 | `Stats` | empty |
//! | 4 | `Shutdown` | empty |
//!
//! ## Responses (`tag` = status; 0 = ok, nonzero = [`ErrorCode`])
//!
//! An ok response's payload depends on the request: `Pong` echoes the
//! nonce; `Labels` is u32 n + n label bytes (0 = LOW, 1 = HIGH);
//! `Bounds` is u32 n + n × (f64 lower, f64 upper); `Stats` is the
//! [`StatsSnapshot`] encoding; `ShutdownAck` is empty. An error
//! response's payload is u32 len + UTF-8 message.

use std::io::{Read, Write};
use tkdc::Label;
use tkdc_common::error::{protocol_error, Error, Result};
use tkdc_common::Matrix;

/// Protocol version carried in every frame.
///
/// Version history: v1 was the original frame set; v2 extends the
/// `Stats` snapshot with the sliding-window latency view
/// (`window_latency_buckets` + `window_seconds`). Framing and every
/// other payload are unchanged.
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard cap on a frame body, so a hostile or corrupt length prefix can
/// never drive an enormous allocation (64 MiB ≈ 4M 2-d query points).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Initial buffer reserved for a frame body before any of it arrives;
/// larger bodies grow the buffer as their bytes are read.
const FRAME_CHUNK_BYTES: usize = 64 * 1024;

/// Request opcodes.
const OP_PING: u8 = 0;
const OP_CLASSIFY: u8 = 1;
const OP_DENSITY: u8 = 2;
const OP_STATS: u8 = 3;
const OP_SHUTDOWN: u8 = 4;

/// Machine-readable error classes a server can return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame could not be decoded (bad opcode, short payload, …).
    Malformed = 1,
    /// The frame's protocol version is not supported by this server.
    UnsupportedVersion = 2,
    /// The server is at its connection cap; retry later.
    OverCapacity = 3,
    /// The request decoded but its content was rejected (dimension
    /// mismatch, NaN coordinates, …).
    BadInput = 4,
    /// The server failed internally while answering.
    Internal = 5,
    /// The frame exceeded [`MAX_FRAME_BYTES`].
    TooLarge = 6,
    /// The connection idled past the server's read timeout.
    Timeout = 7,
    /// The server is draining after a `Shutdown` request.
    ShuttingDown = 8,
}

impl ErrorCode {
    /// Decodes a status byte (which must be nonzero).
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Self::Malformed),
            2 => Some(Self::UnsupportedVersion),
            3 => Some(Self::OverCapacity),
            4 => Some(Self::BadInput),
            5 => Some(Self::Internal),
            6 => Some(Self::TooLarge),
            7 => Some(Self::Timeout),
            8 => Some(Self::ShuttingDown),
            _ => None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; the server echoes the nonce.
    Ping {
        /// Opaque value echoed back in [`Response::Pong`].
        nonce: u64,
    },
    /// Classify a micro-batch of query points.
    Classify {
        /// Query points, one per row.
        points: Matrix,
    },
    /// Certified density bounds for a micro-batch of query points.
    Density {
        /// Query points, one per row.
        points: Matrix,
    },
    /// Fetch the server's metrics snapshot.
    Stats,
    /// Ask the server to drain in-flight work and exit.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Echo of a [`Request::Ping`].
    Pong {
        /// The request's nonce.
        nonce: u64,
    },
    /// Labels for a [`Request::Classify`], in query order.
    Labels(Vec<Label>),
    /// `(lower, upper)` density bounds for a [`Request::Density`].
    Bounds(Vec<(f64, f64)>),
    /// Metrics snapshot for a [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Acknowledgement of a [`Request::Shutdown`].
    ShutdownAck,
    /// The request failed; the connection may be closed afterwards.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

/// A point-in-time copy of the server's metrics (see
/// [`crate::metrics::Metrics`]), self-describing on the wire: latency
/// bucket upper bounds travel with their counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Requests decoded and answered (any type, ok or error).
    pub requests_total: u64,
    /// Requests answered with an error response.
    pub errors_total: u64,
    /// `Ping` requests answered.
    pub pings: u64,
    /// `Classify` requests answered.
    pub classifies: u64,
    /// `Density` requests answered.
    pub densities: u64,
    /// `Stats` requests answered.
    pub stats_requests: u64,
    /// Total query points classified across all `Classify` batches.
    pub points_classified: u64,
    /// Total query points bounded across all `Density` batches.
    pub points_bounded: u64,
    /// Connections turned away at the connection cap.
    pub rejected_over_capacity: u64,
    /// Connections closed by the read/write timeout.
    pub timeouts: u64,
    /// Connections accepted since startup.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Request-latency histogram since startup: `(upper_bound_us,
    /// count)` per bucket, upper bounds ascending, last bucket
    /// `f64::INFINITY`.
    pub latency_buckets: Vec<(f64, u64)>,
    /// Request-latency histogram over the trailing sliding window
    /// (same bucket layout as `latency_buckets`).
    pub window_latency_buckets: Vec<(f64, u64)>,
    /// Width of the sliding window behind `window_latency_buckets`,
    /// in seconds.
    pub window_seconds: u64,
    /// Pruning-engine counters folded from every answered batch's
    /// `QueryStats` (names `engine.queries`, `engine.kernel_evals`, …),
    /// self-describing as `(name, value)` pairs so the frame layout
    /// never changes when counters are added.
    pub engine_counters: Vec<(String, u64)>,
    /// Density-backend name of the served model. Always `tree`; kept so
    /// the frame layout and existing clients stay unchanged.
    pub backend: String,
    /// Bound provenance of the served model's answers. Always
    /// `certified` (exact interval arithmetic); kept like `backend`.
    pub bound_kind: String,
}

impl StatsSnapshot {
    /// Approximate latency quantile (`0 ≤ q ≤ 1`) in microseconds from
    /// the since-startup histogram: the upper bound of the bucket
    /// containing the q-th request. Returns 0 when no latencies were
    /// recorded.
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        tkdc_obs::quantile_from_buckets(&self.latency_buckets, q)
    }

    /// Approximate latency quantile over the trailing sliding window
    /// only (see [`StatsSnapshot::window_seconds`]). Returns 0 when the
    /// window is empty.
    pub fn window_latency_quantile_us(&self, q: f64) -> f64 {
        tkdc_obs::quantile_from_buckets(&self.window_latency_buckets, q)
    }
}

// ---------------------------------------------------------------------
// Little-endian primitive helpers over byte buffers.

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| protocol_error("frame payload shorter than declared"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        // INVARIANT: take() returned exactly 4 bytes.
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        // INVARIANT: take() returned exactly 8 bytes.
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finished(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(protocol_error("trailing bytes after frame payload"))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_matrix(out: &mut Vec<u8>, m: &Matrix) -> Result<()> {
    let rows =
        u32::try_from(m.rows()).map_err(|_| protocol_error("batch exceeds u32 row count"))?;
    let cols =
        u32::try_from(m.cols()).map_err(|_| protocol_error("batch exceeds u32 column count"))?;
    put_u32(out, rows);
    put_u32(out, cols);
    for &v in m.as_slice() {
        put_f64(out, v);
    }
    Ok(())
}

fn decode_matrix(c: &mut Cursor<'_>) -> Result<Matrix> {
    let rows = c.u32()? as usize; // CAST: u32 -> usize is lossless on 64-bit targets
    let cols = c.u32()? as usize; // CAST: u32 -> usize is lossless on 64-bit targets
    let cells = rows
        .checked_mul(cols)
        .ok_or_else(|| protocol_error("matrix dimensions overflow"))?;
    // The frame cap already bounds cells·8; re-check before allocating
    // so a lying header cannot outgrow its actual payload.
    if cells
        .checked_mul(8)
        // CAST: MAX_FRAME_BYTES (64 MiB) fits usize on all supported targets
        .is_none_or(|b| b > MAX_FRAME_BYTES as usize)
    {
        return Err(protocol_error("matrix larger than the frame cap"));
    }
    let mut data = Vec::with_capacity(cells);
    for _ in 0..cells {
        data.push(c.f64()?);
    }
    Matrix::from_vec(data, rows, cols)
        .map_err(|e| protocol_error(format!("bad matrix payload: {e}")))
}

// ---------------------------------------------------------------------
// Framing.

/// Writes one frame (`u32 len | version | tag | payload`).
fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> Result<()> {
    let body_len = u32::try_from(payload.len() + 2)
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or_else(|| protocol_error("frame exceeds MAX_FRAME_BYTES"))?;
    let mut frame = Vec::with_capacity(payload.len() + 6);
    put_u32(&mut frame, body_len);
    frame.push(PROTOCOL_VERSION);
    frame.push(tag);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame body, returning `(version, tag, payload)`. Returns
/// `Ok(None)` on clean EOF at a frame boundary (the peer closed the
/// connection between messages).
fn read_frame(r: &mut impl Read) -> Result<Option<(u8, u8, Vec<u8>)>> {
    let mut len_bytes = [0u8; 4];
    // Distinguish "closed between frames" from "died mid-frame".
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(protocol_error("connection closed mid-frame"));
        }
        filled += n;
    }
    let body_len = u32::from_le_bytes(len_bytes);
    if body_len < 2 {
        return Err(protocol_error("frame too short for version + tag"));
    }
    if body_len > MAX_FRAME_BYTES {
        return Err(protocol_error(format!(
            "frame of {body_len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    // Allocation follows the bytes that actually arrive: a length
    // prefix alone reserves at most FRAME_CHUNK_BYTES, and the buffer
    // only grows as the body is read.
    let claimed = body_len as usize; // CAST: bounded by MAX_FRAME_BYTES
    let mut body = Vec::with_capacity(claimed.min(FRAME_CHUNK_BYTES));
    r.take(u64::from(body_len)).read_to_end(&mut body)?;
    if body.len() < claimed {
        return Err(protocol_error("connection closed mid-frame"));
    }
    let version = body[0];
    let tag = body[1];
    body.drain(..2);
    Ok(Some((version, tag, body)))
}

fn check_version(version: u8) -> Result<()> {
    if version != PROTOCOL_VERSION {
        return Err(protocol_error(format!(
            "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Requests.

/// Serializes a request to a writer as one frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<()> {
    let mut payload = Vec::new();
    let op = match req {
        Request::Ping { nonce } => {
            put_u64(&mut payload, *nonce);
            OP_PING
        }
        Request::Classify { points } => {
            encode_matrix(&mut payload, points)?;
            OP_CLASSIFY
        }
        Request::Density { points } => {
            encode_matrix(&mut payload, points)?;
            OP_DENSITY
        }
        Request::Stats => OP_STATS,
        Request::Shutdown => OP_SHUTDOWN,
    };
    write_frame(w, op, &payload)
}

/// Reads one request frame. `Ok(None)` means the peer closed cleanly.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>> {
    let Some((version, op, payload)) = read_frame(r)? else {
        return Ok(None);
    };
    check_version(version)?;
    let mut c = Cursor::new(&payload);
    let req = match op {
        OP_PING => Request::Ping { nonce: c.u64()? },
        OP_CLASSIFY => Request::Classify {
            points: decode_matrix(&mut c)?,
        },
        OP_DENSITY => Request::Density {
            points: decode_matrix(&mut c)?,
        },
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        other => return Err(protocol_error(format!("unknown request opcode {other}"))),
    };
    c.finished()?;
    Ok(Some(req))
}

// ---------------------------------------------------------------------
// Responses.

fn encode_snapshot(out: &mut Vec<u8>, s: &StatsSnapshot) -> Result<()> {
    for v in [
        s.requests_total,
        s.errors_total,
        s.pings,
        s.classifies,
        s.densities,
        s.stats_requests,
        s.points_classified,
        s.points_bounded,
        s.rejected_over_capacity,
        s.timeouts,
        s.connections_accepted,
        s.active_connections,
    ] {
        put_u64(out, v);
    }
    let n = u32::try_from(s.latency_buckets.len())
        .map_err(|_| protocol_error("implausible bucket count"))?;
    put_u32(out, n);
    for &(le_us, count) in &s.latency_buckets {
        put_f64(out, le_us);
        put_u64(out, count);
    }
    let n = u32::try_from(s.engine_counters.len())
        .map_err(|_| protocol_error("implausible engine counter count"))?;
    put_u32(out, n);
    for (name, value) in &s.engine_counters {
        let bytes = name.as_bytes();
        let len = u32::try_from(bytes.len())
            .map_err(|_| protocol_error("implausible engine counter name"))?;
        put_u32(out, len);
        out.extend_from_slice(bytes);
        put_u64(out, *value);
    }
    for field in [&s.backend, &s.bound_kind] {
        let bytes = field.as_bytes();
        let len =
            u32::try_from(bytes.len()).map_err(|_| protocol_error("implausible backend tag"))?;
        put_u32(out, len);
        out.extend_from_slice(bytes);
    }
    // v2 tail: the sliding-window latency view.
    let n = u32::try_from(s.window_latency_buckets.len())
        .map_err(|_| protocol_error("implausible window bucket count"))?;
    put_u32(out, n);
    for &(le_us, count) in &s.window_latency_buckets {
        put_f64(out, le_us);
        put_u64(out, count);
    }
    put_u64(out, s.window_seconds);
    Ok(())
}

fn decode_snapshot(c: &mut Cursor<'_>) -> Result<StatsSnapshot> {
    let mut s = StatsSnapshot {
        requests_total: c.u64()?,
        errors_total: c.u64()?,
        pings: c.u64()?,
        classifies: c.u64()?,
        densities: c.u64()?,
        stats_requests: c.u64()?,
        points_classified: c.u64()?,
        points_bounded: c.u64()?,
        rejected_over_capacity: c.u64()?,
        timeouts: c.u64()?,
        connections_accepted: c.u64()?,
        active_connections: c.u64()?,
        latency_buckets: Vec::new(),
        window_latency_buckets: Vec::new(),
        window_seconds: 0,
        engine_counters: Vec::new(),
        backend: String::new(),
        bound_kind: String::new(),
    };
    let n = c.u32()? as usize; // CAST: u32 -> usize is lossless on 64-bit targets
    if n > 4096 {
        return Err(protocol_error(format!("implausible bucket count {n}")));
    }
    s.latency_buckets.reserve(n);
    for _ in 0..n {
        let le_us = c.f64()?;
        let count = c.u64()?;
        s.latency_buckets.push((le_us, count));
    }
    let n = c.u32()? as usize; // CAST: u32 -> usize is lossless on 64-bit targets
    if n > 4096 {
        return Err(protocol_error(format!(
            "implausible engine counter count {n}"
        )));
    }
    s.engine_counters.reserve(n);
    for _ in 0..n {
        let len = c.u32()? as usize; // CAST: u32 -> usize is lossless on 64-bit targets
        if len > 1024 {
            return Err(protocol_error(format!(
                "implausible engine counter name length {len}"
            )));
        }
        let name = String::from_utf8_lossy(c.take(len)?).into_owned();
        let value = c.u64()?;
        s.engine_counters.push((name, value));
    }
    let mut tag = || -> Result<String> {
        let len = c.u32()? as usize; // CAST: u32 -> usize is lossless on 64-bit targets
        if len > 64 {
            return Err(protocol_error(format!(
                "implausible backend tag length {len}"
            )));
        }
        Ok(String::from_utf8_lossy(c.take(len)?).into_owned())
    };
    s.backend = tag()?;
    s.bound_kind = tag()?;
    // v2 tail: the sliding-window latency view.
    let n = c.u32()? as usize; // CAST: u32 -> usize is lossless on 64-bit targets
    if n > 4096 {
        return Err(protocol_error(format!(
            "implausible window bucket count {n}"
        )));
    }
    s.window_latency_buckets.reserve(n);
    for _ in 0..n {
        let le_us = c.f64()?;
        let count = c.u64()?;
        s.window_latency_buckets.push((le_us, count));
    }
    s.window_seconds = c.u64()?;
    Ok(s)
}

/// Status byte of an ok response, by payload shape.
const STATUS_OK: u8 = 0;
/// Sub-tag distinguishing ok payload shapes (first payload byte).
const OK_PONG: u8 = 0;
const OK_LABELS: u8 = 1;
const OK_BOUNDS: u8 = 2;
const OK_STATS: u8 = 3;
const OK_SHUTDOWN_ACK: u8 = 4;

/// Serializes a response to a writer as one frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<()> {
    let mut payload = Vec::new();
    let status = match resp {
        Response::Pong { nonce } => {
            payload.push(OK_PONG);
            put_u64(&mut payload, *nonce);
            STATUS_OK
        }
        Response::Labels(labels) => {
            payload.push(OK_LABELS);
            let n = u32::try_from(labels.len())
                .map_err(|_| protocol_error("batch exceeds u32 label count"))?;
            put_u32(&mut payload, n);
            payload.extend(labels.iter().map(|l| match l {
                Label::Low => 0u8,
                Label::High => 1u8,
                Label::Unknown => 2u8,
            }));
            STATUS_OK
        }
        Response::Bounds(bounds) => {
            payload.push(OK_BOUNDS);
            let n = u32::try_from(bounds.len())
                .map_err(|_| protocol_error("batch exceeds u32 bound count"))?;
            put_u32(&mut payload, n);
            for &(lo, hi) in bounds {
                put_f64(&mut payload, lo);
                put_f64(&mut payload, hi);
            }
            STATUS_OK
        }
        Response::Stats(snapshot) => {
            payload.push(OK_STATS);
            encode_snapshot(&mut payload, snapshot)?;
            STATUS_OK
        }
        Response::ShutdownAck => {
            payload.push(OK_SHUTDOWN_ACK);
            STATUS_OK
        }
        Response::Error { code, message } => {
            let bytes = message.as_bytes();
            let n = u32::try_from(bytes.len().min(u32::MAX as usize)) // CAST: u32::MAX fits usize
                .unwrap_or(u32::MAX);
            put_u32(&mut payload, n);
            payload.extend_from_slice(&bytes[..n as usize]); // CAST: n <= len
            *code as u8
        }
    };
    write_frame(w, status, &payload)
}

/// Reads one response frame. `Ok(None)` means the peer closed cleanly.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>> {
    let Some((version, status, payload)) = read_frame(r)? else {
        return Ok(None);
    };
    check_version(version)?;
    let mut c = Cursor::new(&payload);
    if status != STATUS_OK {
        let code = ErrorCode::from_u8(status)
            .ok_or_else(|| protocol_error(format!("unknown response status {status}")))?;
        let n = c.u32()? as usize; // CAST: u32 -> usize is lossless on 64-bit targets
        let bytes = c.take(n)?;
        let message = String::from_utf8_lossy(bytes).into_owned();
        c.finished()?;
        return Ok(Some(Response::Error { code, message }));
    }
    let resp = match c.u8()? {
        OK_PONG => Response::Pong { nonce: c.u64()? },
        OK_LABELS => {
            let n = c.u32()? as usize; // CAST: u32 -> usize is lossless on 64-bit targets
            let bytes = c.take(n)?;
            let mut labels = Vec::with_capacity(n);
            for &b in bytes {
                labels.push(match b {
                    0 => Label::Low,
                    1 => Label::High,
                    2 => Label::Unknown,
                    other => return Err(protocol_error(format!("unknown label byte {other}"))),
                });
            }
            Response::Labels(labels)
        }
        OK_BOUNDS => {
            let n = c.u32()? as usize; // CAST: u32 -> usize is lossless on 64-bit targets
            if n.checked_mul(16)
                // CAST: MAX_FRAME_BYTES (64 MiB) fits usize on all supported targets
                .is_none_or(|b| b > MAX_FRAME_BYTES as usize)
            {
                return Err(protocol_error("bounds payload larger than the frame cap"));
            }
            let mut bounds = Vec::with_capacity(n);
            for _ in 0..n {
                let lo = c.f64()?;
                let hi = c.f64()?;
                bounds.push((lo, hi));
            }
            Response::Bounds(bounds)
        }
        OK_STATS => Response::Stats(decode_snapshot(&mut c)?),
        OK_SHUTDOWN_ACK => Response::ShutdownAck,
        other => return Err(protocol_error(format!("unknown ok payload tag {other}"))),
    };
    c.finished()?;
    Ok(Some(resp))
}

/// Converts an error response into a workspace [`Error`] a client can
/// propagate (used by [`crate::Client`]).
pub fn error_response_to_error(code: ErrorCode, message: &str) -> Error {
    protocol_error(format!("server rejected request ({code:?}): {message}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        read_request(&mut buf.as_slice()).unwrap().unwrap()
    }

    fn round_trip_response(resp: Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        read_response(&mut buf.as_slice()).unwrap().unwrap()
    }

    #[test]
    fn requests_round_trip() {
        assert_eq!(
            round_trip_request(Request::Ping { nonce: 0xDEAD }),
            Request::Ping { nonce: 0xDEAD }
        );
        let m = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]).unwrap();
        assert_eq!(
            round_trip_request(Request::Classify { points: m.clone() }),
            Request::Classify { points: m.clone() }
        );
        assert_eq!(
            round_trip_request(Request::Density { points: m.clone() }),
            Request::Density { points: m }
        );
        assert_eq!(round_trip_request(Request::Stats), Request::Stats);
        assert_eq!(round_trip_request(Request::Shutdown), Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        assert_eq!(
            round_trip_response(Response::Pong { nonce: 7 }),
            Response::Pong { nonce: 7 }
        );
        let labels = vec![Label::High, Label::Low, Label::Unknown, Label::High];
        assert_eq!(
            round_trip_response(Response::Labels(labels.clone())),
            Response::Labels(labels)
        );
        let bounds = vec![(0.5, 1.5), (0.0, f64::INFINITY)];
        assert_eq!(
            round_trip_response(Response::Bounds(bounds.clone())),
            Response::Bounds(bounds)
        );
        assert_eq!(
            round_trip_response(Response::ShutdownAck),
            Response::ShutdownAck
        );
        let err = Response::Error {
            code: ErrorCode::OverCapacity,
            message: "busy".into(),
        };
        assert_eq!(round_trip_response(err.clone()), err);
    }

    #[test]
    fn stats_snapshot_round_trips() {
        let snap = StatsSnapshot {
            requests_total: 10,
            errors_total: 1,
            pings: 2,
            classifies: 3,
            densities: 1,
            stats_requests: 4,
            points_classified: 300,
            points_bounded: 100,
            rejected_over_capacity: 5,
            timeouts: 2,
            connections_accepted: 9,
            active_connections: 3,
            latency_buckets: vec![(1.0, 2), (2.0, 5), (f64::INFINITY, 1)],
            window_latency_buckets: vec![(1.0, 1), (2.0, 2), (f64::INFINITY, 0)],
            window_seconds: 60,
            engine_counters: vec![
                ("engine.queries".to_string(), 400),
                ("engine.kernel_evals".to_string(), 123_456),
            ],
            backend: "tree".to_string(),
            bound_kind: "certified".to_string(),
        };
        assert_eq!(
            round_trip_response(Response::Stats(snap.clone())),
            Response::Stats(snap)
        );
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
    fn latency_quantiles_from_histogram() {
        let snap = StatsSnapshot {
            latency_buckets: vec![(1.0, 50), (2.0, 40), (4.0, 9), (f64::INFINITY, 1)],
            window_latency_buckets: vec![(1.0, 0), (2.0, 3), (4.0, 1), (f64::INFINITY, 0)],
            ..StatsSnapshot::default()
        };
        assert_eq!(snap.latency_quantile_us(0.5), 1.0);
        assert_eq!(snap.latency_quantile_us(0.9), 2.0);
        assert_eq!(snap.latency_quantile_us(0.99), 4.0);
        assert_eq!(snap.latency_quantile_us(1.0), f64::INFINITY);
        assert_eq!(StatsSnapshot::default().latency_quantile_us(0.5), 0.0);
        // The windowed view quantiles independently of the total.
        assert_eq!(snap.window_latency_quantile_us(0.5), 2.0);
        assert_eq!(snap.window_latency_quantile_us(1.0), 4.0);
        assert_eq!(
            StatsSnapshot::default().window_latency_quantile_us(0.5),
            0.0
        );
    }

    #[test]
    fn clean_eof_is_none_midframe_is_error() {
        assert!(read_request(&mut &b""[..]).unwrap().is_none());
        assert!(read_response(&mut &b""[..]).unwrap().is_none());
        // Partial length prefix: mid-frame death.
        assert!(read_request(&mut &b"\x02"[..]).is_err());
        // Full length prefix, missing body.
        let mut buf = Vec::new();
        put_u32(&mut buf, 10);
        assert!(read_request(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn huge_length_prefix_with_short_body_is_a_named_error() {
        // A 64 MiB claim backed by 10 bytes and EOF fails with the named
        // mid-frame protocol error.
        let mut buf = Vec::new();
        put_u32(&mut buf, MAX_FRAME_BYTES);
        buf.push(PROTOCOL_VERSION);
        buf.push(OP_CLASSIFY);
        buf.extend_from_slice(&[0u8; 8]);
        match read_frame(&mut buf.as_slice()) {
            Err(Error::Protocol { message }) => {
                assert!(message.contains("connection closed mid-frame"), "{message}");
            }
            other => panic!("expected a mid-frame protocol error, got {other:?}"),
        }
        assert!(read_request(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn oversized_and_malformed_frames_rejected() {
        // Oversized length prefix.
        let mut buf = Vec::new();
        put_u32(&mut buf, MAX_FRAME_BYTES + 1);
        buf.extend_from_slice(&[PROTOCOL_VERSION, OP_PING]);
        assert!(read_request(&mut buf.as_slice()).is_err());
        // Unknown opcode.
        let mut buf = Vec::new();
        write_frame(&mut buf, 99, &[]).unwrap();
        assert!(read_request(&mut buf.as_slice()).is_err());
        // Wrong protocol version.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.push(PROTOCOL_VERSION + 1);
        buf.push(OP_STATS);
        assert!(read_request(&mut buf.as_slice()).is_err());
        // Trailing junk after a valid payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, &[0u8; 12]).unwrap();
        assert!(read_request(&mut buf.as_slice()).is_err());
        // Matrix whose header promises more cells than the payload holds.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1000);
        put_u32(&mut payload, 1000);
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_CLASSIFY, &payload).unwrap();
        assert!(read_request(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn error_code_round_trips() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::UnsupportedVersion,
            ErrorCode::OverCapacity,
            ErrorCode::BadInput,
            ErrorCode::Internal,
            ErrorCode::TooLarge,
            ErrorCode::Timeout,
            ErrorCode::ShuttingDown,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(99), None);
    }
}
