//! Length-prefixed framing shared by the socket transports.
//!
//! A frame travels as a 4-byte big-endian length followed by the encoded
//! frame body. The send side ([`write_frames_vectored`]) encodes every
//! frame's `[length][prefix]` into one pooled scratch buffer and hands
//! the kernel an iovec that references each payload in place, so a
//! single frame or a whole train leaves in one `writev` — the prefix and
//! body never straddle separate writes, payloads are never memmoved, and
//! steady-state sends reuse the scratch allocation.
//!
//! The receive side is a [`FrameReader`]: a resumable parser that keeps
//! the in-flight frame's partial state across calls. That matters for
//! two failure modes:
//!
//! * **Timeout mid-frame.** With a read deadline set, the OS can hand us
//!   the 4-byte length (or part of the body) and then time out. A naive
//!   reader that discards that progress desynchronizes the stream — the
//!   next `recv` misparses body bytes as a length. The reader instead
//!   returns the timeout error with its cursor intact, and the next call
//!   resumes exactly where it left off.
//! * **Hostile length prefix.** The declared length is attacker
//!   controlled (up to `MAX_FRAME` = 64 MiB). Allocating it up front, in
//!   zeroed memory, before a single body byte arrives is a cheap
//!   memory-exhaustion lever. The reader grows its buffer in bounded
//!   chunks as bytes actually arrive, so a peer must *send* 64 MiB to
//!   make us hold 64 MiB.
//!
//! The reader pulls from the stream through a chunk-sized read-ahead
//! ([`ReadAhead`]): one syscall drains whatever the kernel holds, and a
//! whole batched frame train then parses from memory instead of paying
//! two reads per frame. Bodies of a chunk or more bypass the buffer.

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use nrmi_wire::ByteWriter;

use crate::message::Frame;
use crate::{Result, TransportError};

/// Largest accepted frame (64 MiB) — far above any benchmark payload,
/// low enough to fail fast on corrupt length prefixes. Enforced on both
/// sides of the wire: no write path emits a larger body, and the reader
/// rejects a larger declared length before allocating for it.
pub const MAX_FRAME: usize = 64 << 20;

/// Largest single `read` we issue while the body is incomplete; also the
/// buffer growth step. A peer that declares a huge length but sends
/// nothing costs us at most this much memory.
const READ_CHUNK: usize = 64 * 1024;

/// Payload bytes memmoved into contiguous frame bodies since process
/// start (the copy the scatter-gather path eliminates). Monotonic;
/// difference snapshots of [`bytes_copied`] around a region to meter it.
static PAYLOAD_BYTES_COPIED: AtomicU64 = AtomicU64::new(0);

/// Total payload bytes copied into contiguous frame bodies so far.
/// Vectored sends reference payloads in place and count nothing here.
pub fn bytes_copied() -> u64 {
    PAYLOAD_BYTES_COPIED.load(Ordering::Relaxed)
}

/// Records `n` payload bytes memmoved by a contiguous frame encode.
pub(crate) fn note_payload_copied(n: usize) {
    if n > 0 {
        PAYLOAD_BYTES_COPIED.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// Write syscalls (write/writev) issued by the framed wire paths.
pub(crate) static WIRE_WRITE_CALLS: AtomicU64 = AtomicU64::new(0);
/// Read syscalls issued by the framed wire paths.
pub(crate) static WIRE_READ_CALLS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of (writes, reads) issued by the framed wire paths since
/// process start. Difference two snapshots to meter a region.
pub fn wire_syscalls() -> (u64, u64) {
    (
        WIRE_WRITE_CALLS.load(Ordering::Relaxed),
        WIRE_READ_CALLS.load(Ordering::Relaxed),
    )
}

/// True for I/O error kinds that mean the connection itself is gone —
/// the peer reset or the pipe broke. These surface as
/// [`TransportError::Disconnected`] so callers (notably the reconnecting
/// retry layer) treat a torn socket and an orderly close identically.
fn is_connection_fatal(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::NotConnected
            | ErrorKind::UnexpectedEof
    )
}

/// Ships a train of frames with vectored writes: every frame's
/// `[length][prefix]` is encoded into one pooled scratch buffer (`buf`,
/// whose storage is reused and handed back even on failure) while each
/// payload stays in its own segment, referenced in place — so an
/// N-frame batch with payloads leaves in one `writev` of up to 2N
/// iovecs, with zero payload memmoves.
///
/// Returns the summed frame body lengths (excluding the 4-byte
/// prefixes).
///
/// # Errors
/// [`TransportError::FrameTooLarge`] if any frame's body would exceed
/// [`MAX_FRAME`], detected before any byte reaches the stream — the
/// whole train is rejected and the stream stays at a frame boundary.
/// Connection-fatal I/O errors surface as
/// [`TransportError::Disconnected`].
pub(crate) fn write_frames_vectored(
    stream: &mut impl Write,
    frames: &[&Frame],
    buf: &mut Vec<u8>,
) -> Result<usize> {
    if frames.is_empty() {
        return Ok(0);
    }
    // A full socket send buffer parks this thread in the writev loop.
    crate::blocking::blocking_region("framed.write_frames_vectored");
    let mut w = ByteWriter::with_buffer(std::mem::take(buf));
    // (prefix start, prefix end, payload) per frame; payload slices
    // borrow from the frames, prefix spans index into the scratch.
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(frames.len());
    let mut payloads: Vec<&[u8]> = Vec::with_capacity(frames.len());
    for frame in frames {
        let start = w.len();
        w.put_slice(&[0u8; 4]);
        let payload = frame.encode_prefix_into(&mut w).unwrap_or(&[]);
        spans.push((start, w.len()));
        payloads.push(payload);
    }
    let mut bytes = w.into_bytes();
    let mut total_body = 0usize;
    for (&(start, end), payload) in spans.iter().zip(&payloads) {
        let body_len = (end - start - 4) + payload.len();
        if body_len > MAX_FRAME {
            bytes.clear();
            *buf = bytes;
            return Err(TransportError::FrameTooLarge {
                len: body_len,
                max: MAX_FRAME,
            });
        }
        bytes[start..start + 4].copy_from_slice(&(body_len as u32).to_be_bytes());
        total_body += body_len;
    }
    let outcome = {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(frames.len() * 2);
        for (&(start, end), payload) in spans.iter().zip(&payloads) {
            slices.push(IoSlice::new(&bytes[start..end]));
            if !payload.is_empty() {
                slices.push(IoSlice::new(payload));
            }
        }
        write_all_vectored(stream, &slices)
    };
    *buf = bytes;
    match outcome {
        Ok(()) => Ok(total_body),
        Err(e) if is_connection_fatal(e.kind()) => Err(TransportError::Disconnected),
        Err(e) => Err(e.into()),
    }
}

/// Drives `write_vectored` to completion across `slices`, resuming
/// after partial writes at whatever byte the kernel stopped taking —
/// including mid-iovec — and retrying on `Interrupted`.
fn write_all_vectored(stream: &mut impl Write, slices: &[IoSlice<'_>]) -> std::io::Result<()> {
    let mut idx = 0usize;
    // Bytes of `slices[idx]` already written.
    let mut off = 0usize;
    let mut resume: Vec<IoSlice<'_>> = Vec::new();
    while idx < slices.len() {
        let iov: &[IoSlice<'_>] = if off == 0 {
            &slices[idx..]
        } else {
            // The head slice is partially written: rebuild the remainder
            // view (IoSlice borrows plain slices, so this is cheap).
            resume.clear();
            resume.push(IoSlice::new(&slices[idx][off..]));
            resume.extend(slices[idx + 1..].iter().map(|s| IoSlice::new(s)));
            &resume
        };
        WIRE_WRITE_CALLS.fetch_add(1, Ordering::Relaxed);
        match stream.write_vectored(iov) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "stream stopped accepting bytes",
                ))
            }
            Ok(mut n) => {
                while idx < slices.len() && n > 0 {
                    let remaining = slices[idx].len() - off;
                    if n < remaining {
                        off += n;
                        break;
                    }
                    n -= remaining;
                    idx += 1;
                    off = 0;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// A resumable non-blocking write queue: encoded `[length][frame]`
/// buffers waiting for the socket to accept them, with a cursor into
/// the front buffer so a partial write resumes exactly where the
/// kernel stopped taking bytes.
///
/// This is the write-side twin of [`FrameReader`] for reactor-owned
/// connections: the reactor queues replies as they complete and flushes
/// on write-readiness events, never blocking in `write`. The total
/// queued byte count ([`SendQueue::pending_bytes`]) is the reactor's
/// backpressure signal — above a high-water mark it stops *reading*
/// from the connection, so a client that stops draining replies stalls
/// its own request stream instead of growing server memory.
#[derive(Debug, Default)]
pub struct SendQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of the front chunk already written.
    offset: usize,
    /// Total unwritten bytes across all chunks.
    bytes: usize,
    /// Drained chunk buffers awaiting reuse, so a steady reply stream
    /// stops allocating a fresh `Vec` per frame.
    pool: Vec<Vec<u8>>,
}

/// Most chunk buffers a [`SendQueue`] keeps for reuse.
const POOLED_CHUNKS: usize = 8;

/// Largest chunk capacity worth pooling; one-off giant replies give
/// their memory back instead of pinning it to an idle connection.
const POOLED_CHUNK_CAP: usize = READ_CHUNK;

/// Most iovecs handed to a single `write_vectored` call (kernels cap at
/// `IOV_MAX`, typically 1024; a deep queue just takes another lap).
const FLUSH_IOVECS: usize = 64;

impl SendQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SendQueue::default()
    }

    /// Encodes `frame` (with its length prefix) and appends it to the
    /// queue, reusing a pooled chunk buffer when one is available.
    ///
    /// # Errors
    /// [`TransportError::FrameTooLarge`] if the encoded body would
    /// exceed [`MAX_FRAME`] — rejected before anything is queued, so
    /// the wire never carries a truncated (wrapped-u32) length prefix.
    pub fn push(&mut self, frame: &Frame) -> Result<()> {
        // Cheap pre-check before building a >64 MiB buffer; the exact
        // post-encode check below covers header-heavy frames.
        if frame.payload_len() > MAX_FRAME {
            return Err(TransportError::FrameTooLarge {
                len: frame.payload_len(),
                max: MAX_FRAME,
            });
        }
        let spare = self.pool.pop().unwrap_or_default();
        let mut w = ByteWriter::with_buffer(spare);
        w.put_slice(&[0u8; 4]);
        frame.encode_into(&mut w);
        let mut bytes = w.into_bytes();
        let body_len = bytes.len() - 4;
        if body_len > MAX_FRAME {
            self.recycle_chunk(bytes);
            return Err(TransportError::FrameTooLarge {
                len: body_len,
                max: MAX_FRAME,
            });
        }
        note_payload_copied(frame.payload_len());
        bytes[..4].copy_from_slice(&(body_len as u32).to_be_bytes());
        self.bytes += bytes.len();
        self.chunks.push_back(bytes);
        Ok(())
    }

    /// Unwritten bytes currently queued — the flushed portion of a
    /// partially-written head frame is already excluded, so this is the
    /// reactor's true backpressure signal.
    pub fn pending_bytes(&self) -> usize {
        self.bytes
    }

    /// True when everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Returns a drained chunk to the reuse pool (bounded, and giant
    /// buffers are dropped rather than pinned).
    fn recycle_chunk(&mut self, mut chunk: Vec<u8>) {
        if self.pool.len() < POOLED_CHUNKS && chunk.capacity() <= POOLED_CHUNK_CAP {
            chunk.clear();
            self.pool.push(chunk);
        }
    }

    /// Writes as much queued data as `stream` accepts without blocking,
    /// handing every queued frame to one vectored write per lap so a
    /// burst of completions leaves in a single syscall. Returns
    /// `Ok(true)` when the queue drained completely, `Ok(false)` when
    /// the stream stopped taking bytes (`WouldBlock`) — call again on
    /// the next write-readiness event. A partial write — even one
    /// landing mid-chunk several frames deep — resumes exactly where
    /// the kernel stopped.
    ///
    /// # Errors
    /// [`TransportError::Disconnected`] when the peer is gone; other
    /// I/O errors as-is.
    pub fn flush(&mut self, stream: &mut impl Write) -> Result<bool> {
        loop {
            if self.chunks.is_empty() {
                return Ok(true);
            }
            let wrote = {
                let mut iov: Vec<IoSlice<'_>> =
                    Vec::with_capacity(self.chunks.len().min(FLUSH_IOVECS));
                for (i, chunk) in self.chunks.iter().take(FLUSH_IOVECS).enumerate() {
                    iov.push(IoSlice::new(if i == 0 {
                        &chunk[self.offset..]
                    } else {
                        chunk
                    }));
                }
                WIRE_WRITE_CALLS.fetch_add(1, Ordering::Relaxed);
                stream.write_vectored(&iov)
            };
            match wrote {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(mut n) => {
                    self.bytes -= n;
                    while n > 0 {
                        let front_remaining = self.chunks.front().map_or(0, Vec::len) - self.offset;
                        if n < front_remaining {
                            self.offset += n;
                            break;
                        }
                        n -= front_remaining;
                        self.offset = 0;
                        let done = self.chunks.pop_front().expect("accounted chunk");
                        self.recycle_chunk(done);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_connection_fatal(e.kind()) => {
                    return Err(TransportError::Disconnected)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Read-ahead buffer for [`FrameReader`]: every stream read pulls a full
/// chunk, and later parses are served from it without a syscall.
///
/// Without this, each frame costs at least two `read` syscalls (prefix,
/// then body) no matter how the sender coalesced its writes — a batched
/// `writev` train arriving in one packet would still be picked apart
/// with 2N reads, forfeiting half the point of batching. With it, one
/// read drains everything the kernel has and the whole train parses
/// from memory.
#[derive(Debug, Default)]
struct ReadAhead {
    /// Chunk storage, allocated lazily on the first stream read.
    buf: Vec<u8>,
    /// Next unconsumed byte in `buf`.
    pos: usize,
    /// Bytes of `buf` that hold stream data.
    len: usize,
}

impl ReadAhead {
    /// As `stream.read(dest)`, but through the read-ahead: buffered
    /// bytes first, one chunk-sized stream read only when empty. Reads
    /// for `dest`s of a full chunk or more bypass the buffer entirely
    /// (large bodies should land in their own storage, not be copied
    /// twice). Errors — timeouts included — leave the buffer intact.
    fn read(&mut self, stream: &mut impl Read, dest: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.len {
            if dest.len() >= READ_CHUNK {
                return stream.read(dest);
            }
            if self.buf.len() < READ_CHUNK {
                self.buf.resize(READ_CHUNK, 0);
            }
            let n = stream.read(&mut self.buf)?;
            self.pos = 0;
            self.len = n;
            if n == 0 {
                return Ok(0);
            }
        }
        let n = dest.len().min(self.len - self.pos);
        dest[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    /// Drops buffered bytes (the stream they came from is gone).
    fn clear(&mut self) {
        self.pos = 0;
        self.len = 0;
    }
}

/// The real stream under a [`FrameReader`]: each `read` is one syscall
/// counted in [`wire_syscalls`].
struct Metered<'a, R>(&'a mut R);

impl<R: Read> Read for Metered<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        WIRE_READ_CALLS.fetch_add(1, Ordering::Relaxed);
        self.0.read(buf)
    }
}

/// Resumable `[length][frame]` parser. One instance per connection; its
/// buffer is reused across frames and its cursor survives timeouts.
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    len_buf: [u8; 4],
    /// Prefix bytes received so far (0..=4).
    len_got: usize,
    /// Decoded body length, once all 4 prefix bytes are in.
    body_len: Option<usize>,
    /// Body bytes received so far.
    body_got: usize,
    buf: Vec<u8>,
    /// Bytes read past the current frame, held for the next parse.
    ahead: ReadAhead,
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        FrameReader::default()
    }

    /// Discards any in-flight partial frame AND the read-ahead (used
    /// after a reconnect or a fatal stream error — buffered bytes from
    /// the old stream must not leak into the new one, which starts at a
    /// frame boundary).
    pub(crate) fn reset(&mut self) {
        self.frame_done();
        self.ahead.clear();
    }

    /// Clears only the per-frame parse state after a completed frame;
    /// read-ahead bytes belonging to the NEXT frames stay buffered.
    fn frame_done(&mut self) {
        self.len_got = 0;
        self.body_len = None;
        self.body_got = 0;
    }

    /// True when unconsumed read-ahead bytes are held in user space.
    /// Level-triggered pollers never fire for these — the kernel buffer
    /// may be empty — so an event loop that paused reads mid-buffer
    /// must consult this to know parsing work remains.
    pub(crate) fn has_buffered_input(&self) -> bool {
        self.ahead.pos < self.ahead.len
    }

    /// Attempts to parse one frame purely from buffered read-ahead
    /// bytes, with NO stream I/O. `None` means more bytes are needed
    /// (parse progress is retained for a resumed [`read_frame`]).
    ///
    /// This is the socket transports' fast path: when a batched train
    /// landed in one read, every frame after the first parses from
    /// memory — no read, and no deadline setup for frames that are
    /// already here.
    ///
    /// [`read_frame`]: FrameReader::read_frame
    pub(crate) fn read_frame_buffered(&mut self) -> Option<Result<Frame>> {
        /// A stream with nothing to give: forces the parse to stop at
        /// the exact moment it would touch the real stream.
        struct Dry;
        impl Read for Dry {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(ErrorKind::WouldBlock.into())
            }
        }
        match self.parse(&mut Dry) {
            Err(TransportError::Io(e)) if e.kind() == ErrorKind::WouldBlock => None,
            other => Some(other),
        }
    }

    /// Reads one frame, resuming any partial progress from a previous
    /// call that failed with a timeout. Every `read` it issues on
    /// `stream` counts in [`wire_syscalls`].
    ///
    /// EOF at a frame boundary (or mid-frame — the peer is gone either
    /// way) reports [`TransportError::Disconnected`]. `WouldBlock` /
    /// `TimedOut` I/O errors are returned as-is with the parse state
    /// preserved; socket transports map them to
    /// [`TransportError::Timeout`] and may call again to resume.
    pub(crate) fn read_frame(&mut self, stream: &mut impl Read) -> Result<Frame> {
        self.parse(&mut Metered(stream))
    }

    /// [`read_frame`](Self::read_frame) over any stream, counting
    /// nothing: the buffered probe's dry stream is not a syscall.
    fn parse(&mut self, stream: &mut impl Read) -> Result<Frame> {
        while self.len_got < 4 {
            match self.ahead.read(stream, &mut self.len_buf[self.len_got..]) {
                Ok(0) => {
                    // Peer closed; any partial prefix can never complete.
                    self.reset();
                    return Err(TransportError::Disconnected);
                }
                Ok(n) => self.len_got += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_connection_fatal(e.kind()) => {
                    self.reset();
                    return Err(TransportError::Disconnected);
                }
                // Timeouts included: state stays put for the next call.
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        let len = match self.body_len {
            Some(len) => len,
            None => {
                let len = u32::from_be_bytes(self.len_buf) as usize;
                if len > MAX_FRAME {
                    // The stream is garbage past this point; callers
                    // drop the connection. Start clean either way.
                    self.reset();
                    return Err(TransportError::FrameTooLarge {
                        len,
                        max: MAX_FRAME,
                    });
                }
                self.body_len = Some(len);
                self.body_got = 0;
                self.buf.clear();
                len
            }
        };
        while self.body_got < len {
            // Grow lazily: never hold more than one chunk beyond what
            // the peer has actually sent.
            let target = len.min(self.body_got + READ_CHUNK);
            if self.buf.len() < target {
                self.buf.resize(target, 0);
            }
            match self
                .ahead
                .read(stream, &mut self.buf[self.body_got..target])
            {
                Ok(0) => {
                    self.reset();
                    return Err(TransportError::Disconnected);
                }
                Ok(n) => self.body_got += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_connection_fatal(e.kind()) => {
                    self.reset();
                    return Err(TransportError::Disconnected);
                }
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        let frame = Frame::decode(&self.buf[..len]);
        self.frame_done();
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::{self, Read};

    /// A scripted stream: each step either yields bytes or fails with an
    /// error kind, letting tests interleave data with timeouts.
    struct Script {
        steps: VecDeque<ScriptStep>,
    }

    enum ScriptStep {
        Data(Vec<u8>),
        Fail(ErrorKind),
        Eof,
    }

    impl Script {
        fn new(steps: Vec<ScriptStep>) -> Self {
            Script {
                steps: steps.into(),
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.steps.front_mut() {
                None | Some(ScriptStep::Eof) => Ok(0),
                Some(ScriptStep::Fail(kind)) => {
                    let kind = *kind;
                    self.steps.pop_front();
                    Err(io::Error::new(kind, "scripted failure"))
                }
                Some(ScriptStep::Data(bytes)) => {
                    let n = out.len().min(bytes.len());
                    out[..n].copy_from_slice(&bytes[..n]);
                    bytes.drain(..n);
                    if bytes.is_empty() {
                        self.steps.pop_front();
                    }
                    Ok(n)
                }
            }
        }
    }

    fn framed_bytes(frame: &Frame) -> Vec<u8> {
        let body = frame.encode();
        let mut out = (body.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn timeout_after_prefix_resumes_cleanly() {
        // The regression this module exists for: a timeout lands after
        // the length prefix; the next call must treat the following
        // bytes as *body*, not as a fresh length.
        let frame = Frame::CallReply {
            payload: vec![9; 300],
        };
        let bytes = framed_bytes(&frame);
        let mut stream = Script::new(vec![
            ScriptStep::Data(bytes[..4].to_vec()),
            ScriptStep::Fail(ErrorKind::WouldBlock),
            ScriptStep::Data(bytes[4..].to_vec()),
        ]);
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut stream).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)), "{err:?}");
        assert_eq!(reader.read_frame(&mut stream).unwrap(), frame);
    }

    #[test]
    fn timeout_mid_body_resumes_cleanly() {
        let frame = Frame::CallRequest {
            service: "svc".into(),
            method: "m".into(),
            mode: 2,
            payload: vec![7; 500],
        };
        let bytes = framed_bytes(&frame);
        let mut stream = Script::new(vec![
            ScriptStep::Data(bytes[..100].to_vec()),
            ScriptStep::Fail(ErrorKind::TimedOut),
            ScriptStep::Data(bytes[100..250].to_vec()),
            ScriptStep::Fail(ErrorKind::TimedOut),
            ScriptStep::Data(bytes[250..].to_vec()),
        ]);
        let mut reader = FrameReader::new();
        assert!(reader.read_frame(&mut stream).is_err());
        assert!(reader.read_frame(&mut stream).is_err());
        assert_eq!(reader.read_frame(&mut stream).unwrap(), frame);
    }

    #[test]
    fn back_to_back_frames_share_the_buffer() {
        let a = Frame::CountReply(1);
        let b = Frame::CallReply {
            payload: vec![3; 64],
        };
        let mut bytes = framed_bytes(&a);
        bytes.extend_from_slice(&framed_bytes(&b));
        let mut stream = Script::new(vec![ScriptStep::Data(bytes)]);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut stream).unwrap(), a);
        assert_eq!(reader.read_frame(&mut stream).unwrap(), b);
    }

    #[test]
    fn hostile_prefix_allocates_at_most_one_chunk() {
        // A 60 MiB declared length with no body must not materialize
        // 60 MiB of zeroed memory.
        let len: u32 = 60 << 20;
        let mut stream = Script::new(vec![ScriptStep::Data(len.to_be_bytes().to_vec())]);
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut stream).unwrap_err();
        assert!(
            matches!(err, TransportError::Disconnected),
            "no body ever arrives: {err:?}"
        );
        assert!(
            reader.buf.capacity() <= READ_CHUNK,
            "buffer grew to {} for an unreceived body",
            reader.buf.capacity()
        );
    }

    #[test]
    fn hostile_prefix_with_slow_body_grows_incrementally() {
        let len: u32 = 60 << 20;
        let mut stream = Script::new(vec![
            ScriptStep::Data(len.to_be_bytes().to_vec()),
            ScriptStep::Data(vec![0xab; 1000]),
            ScriptStep::Fail(ErrorKind::WouldBlock),
        ]);
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut stream).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)), "{err:?}");
        assert!(
            reader.buf.capacity() <= 2 * READ_CHUNK,
            "1000 received bytes grew the buffer to {}",
            reader.buf.capacity()
        );
    }

    #[test]
    fn oversize_prefix_rejected_without_allocation() {
        let len = (MAX_FRAME as u32) + 1;
        let mut stream = Script::new(vec![ScriptStep::Data(len.to_be_bytes().to_vec())]);
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut stream).unwrap_err();
        assert!(
            matches!(err, TransportError::FrameTooLarge { .. }),
            "{err:?}"
        );
        assert_eq!(reader.buf.capacity(), 0);
    }

    #[test]
    fn eof_at_boundary_is_disconnect() {
        let mut stream = Script::new(vec![ScriptStep::Eof]);
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.read_frame(&mut stream),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn eof_mid_frame_is_disconnect() {
        let frame = Frame::CountReply(5);
        let bytes = framed_bytes(&frame);
        let mut stream = Script::new(vec![ScriptStep::Data(bytes[..3].to_vec()), ScriptStep::Eof]);
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.read_frame(&mut stream),
            Err(TransportError::Disconnected)
        ));
    }

    /// A stream that accepts at most `quota` bytes per `write` call and
    /// fails with `WouldBlock` once `cap` total bytes have been taken —
    /// the shape of a non-blocking socket with a full send buffer.
    struct Throttled {
        taken: Vec<u8>,
        quota: usize,
        cap: usize,
    }

    impl io::Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.taken.len() >= self.cap {
                return Err(io::Error::new(ErrorKind::WouldBlock, "send buffer full"));
            }
            let n = buf.len().min(self.quota).min(self.cap - self.taken.len());
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_queue_resumes_partial_writes() {
        let frames = [
            Frame::CountReply(1),
            Frame::CallReply {
                payload: vec![5; 700],
            },
            Frame::Ack,
        ];
        let mut q = SendQueue::new();
        for f in &frames {
            q.push(f).unwrap();
        }
        let total = q.pending_bytes();
        // First pass: the socket takes 100 bytes in 7-byte dribbles.
        let mut stream = Throttled {
            taken: Vec::new(),
            quota: 7,
            cap: 100,
        };
        assert!(!q.flush(&mut stream).unwrap(), "socket filled mid-frame");
        assert_eq!(q.pending_bytes(), total - 100);
        // Second pass: the socket drains.
        stream.cap = usize::MAX;
        assert!(q.flush(&mut stream).unwrap());
        assert!(q.is_empty());
        assert_eq!(q.pending_bytes(), 0);
        // The bytes on the wire parse back to the exact frame sequence.
        let mut reader = FrameReader::new();
        let mut replay = Script::new(vec![ScriptStep::Data(stream.taken)]);
        for f in &frames {
            assert_eq!(&reader.read_frame(&mut replay).unwrap(), f);
        }
    }

    #[test]
    fn send_queue_reports_disconnect() {
        struct Dead;
        impl io::Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut q = SendQueue::new();
        q.push(&Frame::Ack).unwrap();
        assert!(matches!(
            q.flush(&mut Dead),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let frame = Frame::CallRequestWarm {
            service: "svc".into(),
            method: "m".into(),
            mode: 3,
            cache_id: 12,
            generation: 4,
            payload: vec![1, 2, 3, 4],
        };
        let mut wire = Vec::new();
        let mut pool = Vec::new();
        let body_len = write_frames_vectored(&mut wire, &[&frame], &mut pool).unwrap();
        assert_eq!(body_len + 4, wire.len());
        let mut stream = Script::new(vec![ScriptStep::Data(wire)]);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut stream).unwrap(), frame);
    }

    /// One frame per wire shape the vectored path must handle: payload
    /// tails (present, empty, huge-ish), enveloped payloads, and frames
    /// with no payload at all.
    fn all_frame_shapes() -> Vec<Frame> {
        vec![
            Frame::CallRequest {
                service: "translator".into(),
                method: "translate".into(),
                mode: 2,
                payload: vec![0xa1; 300],
            },
            Frame::CallObject {
                key: 9,
                method: "deposit".into(),
                mode: 2,
                payload: vec![],
            },
            Frame::CallReply {
                payload: vec![0x5c; 70_000],
            },
            Frame::CallError {
                message: "remote exception: boom".into(),
            },
            Frame::Lookup { name: "svc".into() },
            Frame::LookupReply { found: true },
            Frame::GetField { key: 7, field: 2 },
            Frame::SetField {
                key: 7,
                field: 2,
                value: crate::message::RVal::Str("x".into()),
            },
            Frame::GetElement { key: 1, index: 9 },
            Frame::SetElement {
                key: 1,
                index: 9,
                value: crate::message::RVal::Double(2.5),
            },
            Frame::SlotCount { key: 3 },
            Frame::ClassOf { key: 3 },
            Frame::ValueReply(crate::message::RVal::Long(i64::MIN)),
            Frame::CountReply(u64::MAX),
            Frame::ClassReply(42),
            Frame::ErrorReply {
                message: "dangling".into(),
            },
            Frame::DgcClean { key: 99 },
            Frame::Ack,
            Frame::Shutdown,
            Frame::CallRequestWarm {
                service: "svc".into(),
                method: "m".into(),
                mode: 3,
                cache_id: 7,
                generation: 4,
                payload: vec![0x77; 1500],
            },
            Frame::CacheMiss,
            Frame::CacheEvict { cache_id: 55 },
            Frame::Tagged {
                nonce: 0xdead_beef,
                seq: 17,
                frame: Box::new(Frame::CallRequestWarm {
                    service: "svc".into(),
                    method: "m".into(),
                    mode: 3,
                    cache_id: 8,
                    generation: 2,
                    payload: vec![0x42; 900],
                }),
            },
            Frame::ReplyCached {
                nonce: 42,
                seq: 9,
                frame: Box::new(Frame::CallReply {
                    payload: vec![5; 20],
                }),
            },
        ]
    }

    /// The tentpole differential: a vectored frame train must be
    /// byte-identical to N sequential contiguous writes, across every
    /// frame shape, and must parse back losslessly.
    #[test]
    fn vectored_train_matches_sequential_writes() {
        let frames = all_frame_shapes();
        let refs: Vec<&Frame> = frames.iter().collect();
        let mut train = Vec::new();
        let mut scratch = Vec::new();
        let total_body = write_frames_vectored(&mut train, &refs, &mut scratch).unwrap();
        let mut sequential = Vec::new();
        for f in &frames {
            sequential.extend_from_slice(&framed_bytes(f));
        }
        assert_eq!(train, sequential, "writev train diverges from write_all");
        assert_eq!(total_body + 4 * frames.len(), train.len());
        let mut reader = FrameReader::new();
        let mut replay = Script::new(vec![ScriptStep::Data(train)]);
        for f in &frames {
            assert_eq!(&reader.read_frame(&mut replay).unwrap(), f);
        }
    }

    /// A single send is the one-frame train: its bytes must be exactly
    /// the reference `[len] ++ Frame::encode()`, for every frame shape.
    #[test]
    fn single_frame_write_matches_reference_encoding() {
        let mut pool = Vec::new();
        for frame in all_frame_shapes() {
            let mut wire = Vec::new();
            let body_len = write_frames_vectored(&mut wire, &[&frame], &mut pool).unwrap();
            assert_eq!(wire, framed_bytes(&frame), "{frame:?}");
            assert_eq!(body_len + 4, wire.len(), "{frame:?}");
        }
    }

    /// A stream whose `write_vectored` takes a scripted number of bytes
    /// per call — spanning iovec boundaries mid-call — then accepts
    /// everything once the script runs out.
    struct VectoredScript {
        taken: Vec<u8>,
        budgets: VecDeque<usize>,
    }

    impl io::Write for VectoredScript {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            let budget = self.budgets.pop_front().unwrap_or(usize::MAX);
            let mut n = 0usize;
            for b in bufs {
                let take = b.len().min(budget - n);
                self.taken.extend_from_slice(&b[..take]);
                n += take;
                if n == budget {
                    break;
                }
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Fault injection on the vectored path: partial writes landing
    /// mid-prefix, exactly on the prefix/payload iovec boundary,
    /// mid-payload, and exactly between frames must never desync the
    /// byte stream — the reader recovers every frame.
    #[test]
    fn partial_writes_on_iovec_boundaries_never_desync() {
        let frames = vec![
            Frame::CallRequest {
                service: "svc".into(),
                method: "m".into(),
                mode: 2,
                payload: vec![0xaa; 257],
            },
            Frame::Ack,
            Frame::CallReply {
                payload: vec![0xbb; 129],
            },
        ];
        let refs: Vec<&Frame> = frames.iter().collect();
        // Layout facts for the boundary arithmetic below.
        let prefix0 = framed_bytes(&frames[0]).len() - 257;
        let frame0 = prefix0 + 257;
        let frame1 = framed_bytes(&frames[1]).len();
        let boundary_scripts: Vec<Vec<usize>> = vec![
            vec![2],                                // mid length-prefix of frame 0
            vec![prefix0],                          // exactly on the prefix/payload iovec boundary
            vec![prefix0 + 100],                    // mid-payload
            vec![frame0],                           // exactly between frame 0 and frame 1
            vec![frame0 + frame1],                  // exactly between frame 1 and frame 2
            vec![2, prefix0 - 2, 100, 157, frame1], // all of the above in one run
            vec![1; 40],                            // byte-at-a-time torture
        ];
        let mut expected = Vec::new();
        for f in &frames {
            expected.extend_from_slice(&framed_bytes(f));
        }
        for script in boundary_scripts {
            let mut stream = VectoredScript {
                taken: Vec::new(),
                budgets: script.iter().copied().collect(),
            };
            let mut scratch = Vec::new();
            write_frames_vectored(&mut stream, &refs, &mut scratch)
                .unwrap_or_else(|e| panic!("script {script:?}: {e:?}"));
            assert_eq!(
                stream.taken, expected,
                "script {script:?} desynced the stream"
            );
            let mut reader = FrameReader::new();
            let mut replay = Script::new(vec![ScriptStep::Data(stream.taken)]);
            for f in &frames {
                assert_eq!(
                    &reader.read_frame(&mut replay).unwrap(),
                    f,
                    "script {script:?}"
                );
            }
        }
    }

    /// Seeded-random differential sweep: arbitrary trains of arbitrary
    /// frames, written vectored under arbitrary partial-write schedules,
    /// stay byte-identical to sequential contiguous writes.
    #[test]
    fn random_trains_match_sequential_writes() {
        let shapes = all_frame_shapes();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..64 {
            let train_len = (rng() % 6 + 1) as usize;
            let frames: Vec<&Frame> = (0..train_len)
                .map(|_| &shapes[(rng() as usize) % shapes.len()])
                .collect();
            let mut expected = Vec::new();
            for f in &frames {
                expected.extend_from_slice(&framed_bytes(f));
            }
            let budgets: VecDeque<usize> = (0..(rng() % 8))
                .map(|_| (rng() % 4096 + 1) as usize)
                .collect();
            let mut stream = VectoredScript {
                taken: Vec::new(),
                budgets,
            };
            let mut scratch = Vec::new();
            let total = write_frames_vectored(&mut stream, &frames, &mut scratch).unwrap();
            assert_eq!(stream.taken, expected);
            assert_eq!(total + 4 * frames.len(), expected.len());
        }
    }

    /// Satellite regression: an encoded body larger than [`MAX_FRAME`]
    /// must be rejected with a typed error *before* any byte reaches the
    /// stream — as a single send, inside a train, and on the reactor's
    /// send queue — instead of silently truncating the length prefix.
    #[test]
    fn oversize_frame_rejected_on_every_write_path() {
        let oversize = Frame::CallReply {
            payload: vec![0; MAX_FRAME + 1],
        };
        let ok = Frame::Ack;

        let mut wire = Vec::new();
        let mut pool = Vec::new();
        let err = write_frames_vectored(&mut wire, &[&oversize], &mut pool).unwrap_err();
        assert!(
            matches!(err, TransportError::FrameTooLarge { len, max }
                if len > MAX_FRAME && max == MAX_FRAME),
            "{err:?}"
        );
        assert!(wire.is_empty(), "bytes leaked before the guard");

        // Vectored train: one bad frame poisons nothing — the train is
        // rejected atomically, before any sibling frame's bytes leave.
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        let err = write_frames_vectored(&mut wire, &[&ok, &oversize], &mut scratch).unwrap_err();
        assert!(
            matches!(err, TransportError::FrameTooLarge { .. }),
            "{err:?}"
        );
        assert!(wire.is_empty(), "partial train escaped before the guard");

        let mut q = SendQueue::new();
        let err = q.push(&oversize).unwrap_err();
        assert!(
            matches!(err, TransportError::FrameTooLarge { .. }),
            "{err:?}"
        );
        assert!(q.is_empty());
        assert_eq!(q.pending_bytes(), 0);
    }

    /// Satellite regression: `pending_bytes` must track the *unsent*
    /// byte count exactly through vectored partial writes that end
    /// mid-chunk several frames deep.
    #[test]
    fn send_queue_vectored_partial_write_accounting() {
        let frames = [
            Frame::CallReply {
                payload: vec![1; 200],
            },
            Frame::CallReply {
                payload: vec![2; 300],
            },
            Frame::CountReply(7),
            Frame::CallReply {
                payload: vec![3; 100],
            },
        ];
        let mut q = SendQueue::new();
        let mut sizes = Vec::new();
        for f in &frames {
            sizes.push(framed_bytes(f).len());
            q.push(f).unwrap();
        }
        let total: usize = sizes.iter().sum();
        assert_eq!(q.pending_bytes(), total);

        // One vectored call takes chunk 0 entirely plus 50 bytes of
        // chunk 1 (an iovec-spanning partial), then the socket fills.
        let first = sizes[0] + 50;
        let mut stream = VectoredScript {
            taken: Vec::new(),
            budgets: [first, 0].into_iter().collect(),
        };
        // Budget 0 signals a full socket: translate to WouldBlock.
        struct BlockAfter<'a>(&'a mut VectoredScript);
        impl io::Write for BlockAfter<'_> {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.write_vectored(&[io::IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
                if self.0.budgets.front() == Some(&0) {
                    return Err(io::Error::new(ErrorKind::WouldBlock, "send buffer full"));
                }
                self.0.write_vectored(bufs)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        assert!(!q.flush(&mut BlockAfter(&mut stream)).unwrap());
        assert_eq!(
            q.pending_bytes(),
            total - first,
            "flushed portion of the partially-written head frame must be excluded"
        );
        assert!(!q.is_empty());

        // Drain the rest; accounting must land exactly on zero and the
        // wire must parse back to the full frame sequence.
        stream.budgets.clear();
        assert!(q.flush(&mut stream).unwrap());
        assert_eq!(q.pending_bytes(), 0);
        assert!(q.is_empty());
        let mut reader = FrameReader::new();
        let mut replay = Script::new(vec![ScriptStep::Data(stream.taken)]);
        for f in &frames {
            assert_eq!(&reader.read_frame(&mut replay).unwrap(), f);
        }
    }

    /// Steady-state sends through a drained queue reuse pooled chunk
    /// buffers instead of allocating per frame.
    #[test]
    fn send_queue_recycles_chunk_buffers() {
        let frame = Frame::CallReply {
            payload: vec![9; 256],
        };
        let mut q = SendQueue::new();
        q.push(&frame).unwrap();
        let first_ptr = q.chunks.front().unwrap().as_ptr();
        let mut sink = Vec::new();
        assert!(q.flush(&mut sink).unwrap());
        q.push(&frame).unwrap();
        assert_eq!(
            q.chunks.front().unwrap().as_ptr(),
            first_ptr,
            "drained chunk buffer was not recycled"
        );
    }

    /// The copy counter meters the one contiguous encoder left (the
    /// reactor's send queue) and stays silent on the vectored path.
    #[test]
    fn copy_counter_meters_contiguous_payloads_only() {
        let frame = Frame::CallReply {
            payload: vec![4; 4096],
        };
        let before = bytes_copied();
        SendQueue::new().push(&frame).unwrap();
        assert!(
            bytes_copied() - before >= 4096,
            "contiguous encode must meter its payload copy"
        );
        // Other tests meter their own copies concurrently, so the
        // vectored check uses a payload large enough to dominate them.
        let huge = Frame::CallReply {
            payload: vec![4; 8 << 20],
        };
        let before = bytes_copied();
        let mut wire = Vec::new();
        let mut pool = Vec::new();
        write_frames_vectored(&mut wire, &[&huge], &mut pool).unwrap();
        assert!(
            bytes_copied() - before < (8 << 20),
            "vectored write memmoved its payload"
        );
    }
}
