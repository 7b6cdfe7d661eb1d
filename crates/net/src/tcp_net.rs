//! Real-socket transport: per-peer TCP connections with length-prefixed
//! frames.
//!
//! [`TcpEndpoint`] gives one replica a [`Transport`] handle backed by
//! kernel sockets instead of crossbeam channels, so a cluster can span
//! processes (and machines). The design keeps every protocol decision in
//! the layers above — this module moves opaque frame bodies:
//!
//! * **Framing** — each frame is a little-endian `u32` body length
//!   followed by the body. Bodies are produced/consumed by a per-link
//!   [`LinkCodec`], which may carry state *scoped to one connection*
//!   (e.g. the wire codec's delta streams): TCP delivers the byte stream
//!   exactly once in order, so connection-scoped codec state stays in
//!   lockstep even while the session layer above retransmits, and a
//!   reconnect resets both ends together.
//! * **Reassembly** — [`FrameBuffer`] is transactional: a partial read
//!   buffers bytes without touching the codec, and a malformed prefix
//!   (oversized length) poisons the connection rather than resynchronize
//!   heuristically. The session layer's retransmission restores anything
//!   a torn-down connection was carrying.
//! * **Write coalescing** — each peer has a writer thread that drains its
//!   outbox and writes every queued frame (up to 256 KiB) with one
//!   `write(2)`.
//! * **Reconnect with backoff** — outbound connections retry with
//!   exponential backoff; messages queued or in flight across a
//!   disconnect are simply lost here and repaired by the session layer,
//!   which is exactly the loss model the rest of the stack assumes.
//! * **Zero-run packing** — [`pack_zero_runs`]/[`unpack_zero_runs`] are
//!   a reversible byte-level transform for frame segments dominated by
//!   `0x00` (steady-state delta frames, where an unchanged counter costs
//!   one zero byte): each zero byte is followed by a count of additional
//!   zeros, so a run of `n` zeros costs 2 bytes per 256. Codecs opt in
//!   per segment; the transform is exactly invertible, so the canonical
//!   wire-codec bytes are reconstructed before decode.

use crate::link::Envelope;
use crate::transport::{Doorbell, Transport};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use prcc_sharegraph::ReplicaId;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Protocol magic + version, exchanged once per connection before any
/// frame: `b"PRCC"`, version byte, then source and destination replica
/// ids (`u32` LE each).
const HANDSHAKE_MAGIC: [u8; 4] = *b"PRCC";
const HANDSHAKE_VERSION: u8 = 1;
const HANDSHAKE_LEN: usize = 13;

/// Why a frame (or connection) was rejected. Rejection is transactional:
/// the reporting codec/buffer state is unchanged or the connection is
/// poisoned outright — never silently resynchronized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix exceeded the configured maximum frame size.
    Oversize {
        /// The advertised body length.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The frame body ended mid-field or carried trailing bytes.
    Malformed(&'static str),
    /// The payload codec rejected the body (e.g. a wire-codec
    /// `DecodeError`).
    Codec(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::Codec(e) => write!(f, "payload codec rejected frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Packs `src` into `dst`, replacing every `0x00` byte with `0x00`
/// followed by a count of *additional* consecutive zeros consumed
/// (0–255). Non-zero bytes copy through verbatim, so data without zeros
/// grows by nothing and a long zero run costs 2 bytes per 256 zeros.
/// Exactly inverted by [`unpack_zero_runs`].
pub fn pack_zero_runs(src: &[u8], dst: &mut Vec<u8>) {
    let mut i = 0;
    while i < src.len() {
        let b = src[i];
        if b != 0 {
            dst.push(b);
            i += 1;
            continue;
        }
        let mut run = 1usize;
        while run < 256 && i + run < src.len() && src[i + run] == 0 {
            run += 1;
        }
        dst.push(0);
        dst.push((run - 1) as u8);
        i += run;
    }
}

/// Inverse of [`pack_zero_runs`]. Appends the unpacked bytes to `dst`;
/// rejects input that ends mid-run or would unpack past `max` bytes
/// (guarding against a 256× zero bomb from a corrupt frame).
pub fn unpack_zero_runs(src: &[u8], dst: &mut Vec<u8>, max: usize) -> Result<(), FrameError> {
    let start = dst.len();
    let mut i = 0;
    while i < src.len() {
        let b = src[i];
        i += 1;
        if b != 0 {
            if dst.len() - start >= max {
                return Err(FrameError::Malformed("zero-run unpack exceeds bound"));
            }
            dst.push(b);
            continue;
        }
        let Some(&extra) = src.get(i) else {
            return Err(FrameError::Malformed("zero run truncated"));
        };
        i += 1;
        let run = extra as usize + 1;
        if dst.len() - start + run > max {
            return Err(FrameError::Malformed("zero-run unpack exceeds bound"));
        }
        dst.resize(dst.len() + run, 0);
    }
    Ok(())
}

/// A stateful per-connection body codec: one instance per direction of
/// one TCP connection, created fresh on every (re)connect so both ends
/// reset any delta state together.
pub trait LinkCodec: Send {
    /// The message type carried.
    type Msg;

    /// Serializes `msg`, appending the frame body to `buf`.
    fn encode(&mut self, msg: &Self::Msg, buf: &mut Vec<u8>);

    /// Deserializes one complete frame body. Rejection must be
    /// transactional: on `Err`, internal state is either unchanged or the
    /// connection is torn down by the caller (it always is).
    fn decode(&mut self, body: &[u8]) -> Result<Self::Msg, FrameError>;
}

/// Builds the per-connection codec for a given remote peer.
pub type CodecFactory<M> = Arc<dyn Fn(ReplicaId) -> Box<dyn LinkCodec<Msg = M>> + Send + Sync>;

/// Transactional reassembly buffer for length-prefixed frames.
///
/// Bytes arrive in arbitrary chunks ([`FrameBuffer::extend`]); complete
/// frames come out in order ([`FrameBuffer::next_frame`]). Incomplete
/// data is held untouched — short reads and mid-frame disconnects never
/// reach the codec — and an implausible length prefix poisons the buffer
/// permanently: a stream that lied about one length has no trustworthy
/// resynchronization point.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
    poisoned: bool,
}

impl FrameBuffer {
    /// An empty buffer accepting bodies up to `max_frame` bytes.
    pub fn new(max_frame: usize) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            start: 0,
            max_frame,
            poisoned: false,
        }
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        // Compact lazily: reclaim consumed prefix once it dominates.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True once a malformed prefix has been seen.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Extracts the next complete frame body, `Ok(None)` if more bytes
    /// are needed, or an error (poisoning the buffer) on an oversized
    /// length prefix.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.poisoned {
            return Err(FrameError::Malformed("buffer poisoned"));
        }
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > self.max_frame {
            self.poisoned = true;
            return Err(FrameError::Oversize {
                len,
                max: self.max_frame,
            });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = avail[4..4 + len].to_vec();
        self.start += 4 + len;
        Ok(Some(body))
    }
}

/// Per-attempt outbound connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(1000);
/// First reconnect backoff delay; doubles per consecutive failure.
const RECONNECT_BASE: Duration = Duration::from_millis(10);
/// Reconnect backoff ceiling.
const RECONNECT_MAX: Duration = Duration::from_millis(500);
/// Maximum frame body size accepted.
const MAX_FRAME: usize = 1 << 24;
/// Socket read/write timeout — also the shutdown poll interval.
const IO_TIMEOUT: Duration = Duration::from_millis(50);

/// Queue depths for a [`TcpEndpoint`].
#[derive(Debug, Clone)]
pub struct TcpNetConfig {
    /// Per-peer outbound queue depth; a full queue sheds (session layer
    /// repairs).
    pub outbox_depth: usize,
    /// Inbound delivery queue depth; readers backpressure TCP when full.
    pub ingress_depth: usize,
}

impl Default for TcpNetConfig {
    fn default() -> Self {
        TcpNetConfig {
            outbox_depth: 4096,
            ingress_depth: 4096,
        }
    }
}

#[derive(Default)]
struct TcpCounters {
    write_syscalls: AtomicU64,
    read_syscalls: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    reconnects: AtomicU64,
    shed_outbound: AtomicU64,
    decode_errors: AtomicU64,
}

/// A point-in-time copy of one endpoint's I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStatsSnapshot {
    /// `write(2)` calls issued (coalescing shrinks this).
    pub write_syscalls: u64,
    /// `read(2)` calls that returned data.
    pub read_syscalls: u64,
    /// Bytes written, including frame headers and handshakes.
    pub bytes_sent: u64,
    /// Bytes read.
    pub bytes_received: u64,
    /// Frames written.
    pub frames_sent: u64,
    /// Frames decoded and delivered.
    pub frames_received: u64,
    /// Outbound connection (re-)establishments after the first success.
    pub reconnects: u64,
    /// Messages shed because a peer outbox was full or closed.
    pub shed_outbound: u64,
    /// Frames rejected by the payload codec (connection torn down).
    pub decode_errors: u64,
}

/// The cloneable per-node handle onto a [`TcpEndpoint`]. Sends enqueue to
/// per-peer writer threads; receives drain the shared inbound queue.
pub struct TcpHandle<M> {
    id: ReplicaId,
    outboxes: Arc<HashMap<ReplicaId, Sender<M>>>,
    inbox: Receiver<Envelope<M>>,
    /// Rung by the reader threads after every delivery into `inbox`.
    bell: Doorbell,
    counters: Arc<TcpCounters>,
}

impl<M> Clone for TcpHandle<M> {
    fn clone(&self) -> Self {
        TcpHandle {
            id: self.id,
            outboxes: Arc::clone(&self.outboxes),
            inbox: self.inbox.clone(),
            bell: self.bell.clone(),
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<M> fmt::Debug for TcpHandle<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpHandle").field("id", &self.id).finish()
    }
}

impl<M: Send + 'static> Transport for TcpHandle<M> {
    type Msg = M;

    fn id(&self) -> ReplicaId {
        self.id
    }

    fn send(&self, dst: ReplicaId, msg: M) -> bool {
        match self.outboxes.get(&dst) {
            Some(tx) => match tx.try_send(msg) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.counters.shed_outbound.fetch_add(1, Ordering::Relaxed);
                    false
                }
            },
            None => {
                self.counters.shed_outbound.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    fn try_recv(&self) -> Option<Envelope<M>> {
        self.inbox.try_recv().ok()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        match self.inbox.recv_timeout(timeout) {
            Ok(env) => Some(env),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    fn doorbell(&self) -> &Doorbell {
        &self.bell
    }
}

/// A listener bound but not yet serving — split from
/// [`TcpEndpoint::start`] so an in-process cluster can bind every node on
/// an ephemeral port, collect the real addresses, and only then wire the
/// peers together.
#[derive(Debug)]
pub struct BoundListener {
    id: ReplicaId,
    listener: TcpListener,
    addr: SocketAddr,
}

impl BoundListener {
    /// Binds `listen` (port 0 picks an ephemeral port) for replica `id`.
    pub fn bind(id: ReplicaId, listen: SocketAddr) -> io::Result<BoundListener> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        Ok(BoundListener { id, listener, addr })
    }

    /// The actual bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replica this listener was bound for.
    pub fn id(&self) -> ReplicaId {
        self.id
    }
}

/// One replica's socket endpoint: an acceptor thread, one reader thread
/// per inbound connection, and one writer thread per peer.
pub struct TcpEndpoint<M> {
    handle: TcpHandle<M>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<TcpCounters>,
}

impl<M> fmt::Debug for TcpEndpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("id", &self.handle.id)
            .field("addr", &self.addr)
            .finish()
    }
}

impl<M: Send + 'static> TcpEndpoint<M> {
    /// Starts serving on a previously bound listener, connecting out to
    /// `peers` lazily (each peer's writer connects on first send, with
    /// backoff until the peer is up).
    pub fn start(
        bound: BoundListener,
        peers: HashMap<ReplicaId, SocketAddr>,
        cfg: TcpNetConfig,
        codec: CodecFactory<M>,
    ) -> io::Result<TcpEndpoint<M>> {
        Self::start_with_bell(bound, peers, cfg, codec, Doorbell::new())
    }

    /// Like [`start`](Self::start), but the reader threads ring `bell`
    /// after every delivery, so endpoints that share a bell share the one
    /// thread that consumes them.
    pub fn start_with_bell(
        bound: BoundListener,
        peers: HashMap<ReplicaId, SocketAddr>,
        cfg: TcpNetConfig,
        codec: CodecFactory<M>,
        bell: Doorbell,
    ) -> io::Result<TcpEndpoint<M>> {
        let BoundListener { id, listener, addr } = bound;
        listener.set_nonblocking(true)?;
        let counters = Arc::new(TcpCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (inbox_tx, inbox_rx) = bounded::<Envelope<M>>(cfg.ingress_depth.max(1));

        let mut outboxes = HashMap::new();
        for (&peer, &peer_addr) in &peers {
            let (tx, rx) = bounded::<M>(cfg.outbox_depth.max(1));
            outboxes.insert(peer, tx);
            spawn_net_thread(format!("prcc-tcp-w{}-{}", id.index(), peer.index()), {
                let codec = Arc::clone(&codec);
                let counters = Arc::clone(&counters);
                let shutdown = Arc::clone(&shutdown);
                move || writer_loop(id, peer, peer_addr, rx, codec, counters, shutdown)
            });
        }

        spawn_net_thread(format!("prcc-tcp-acc{}", id.index()), {
            let counters = Arc::clone(&counters);
            let shutdown = Arc::clone(&shutdown);
            let bell = bell.clone();
            move || acceptor_loop(id, listener, inbox_tx, bell, codec, counters, shutdown)
        });

        let handle = TcpHandle {
            id,
            outboxes: Arc::new(outboxes),
            inbox: inbox_rx,
            bell,
            counters: Arc::clone(&counters),
        };
        Ok(TcpEndpoint {
            handle,
            addr,
            shutdown,
            counters,
        })
    }

    /// The address this endpoint accepts connections on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable transport handle.
    pub fn handle(&self) -> TcpHandle<M> {
        self.handle.clone()
    }

    /// Current I/O counters.
    pub fn stats(&self) -> TcpStatsSnapshot {
        let c = &self.counters;
        TcpStatsSnapshot {
            write_syscalls: c.write_syscalls.load(Ordering::Relaxed),
            read_syscalls: c.read_syscalls.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            bytes_received: c.bytes_received.load(Ordering::Relaxed),
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            frames_received: c.frames_received.load(Ordering::Relaxed),
            reconnects: c.reconnects.load(Ordering::Relaxed),
            shed_outbound: c.shed_outbound.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
        }
    }

    /// Signals every I/O thread to exit. Threads notice within one
    /// `IO_TIMEOUT` (50 ms); this call does not block on them.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

impl<M> Drop for TcpEndpoint<M> {
    fn drop(&mut self) {
        // Signal and detach: I/O threads poll the flag and exit on their
        // own; blocking here could deadlock a drop on a wedged socket.
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Net threads carry small stacks — a clique(24) in-process cluster runs
/// over a thousand of them.
fn spawn_net_thread<F: FnOnce() + Send + 'static>(name: String, f: F) {
    std::thread::Builder::new()
        .name(name)
        .stack_size(256 * 1024)
        .spawn(f)
        .expect("spawn net thread");
}

fn write_handshake(stream: &mut TcpStream, src: ReplicaId, dst: ReplicaId) -> io::Result<()> {
    let mut hs = [0u8; HANDSHAKE_LEN];
    hs[..4].copy_from_slice(&HANDSHAKE_MAGIC);
    hs[4] = HANDSHAKE_VERSION;
    hs[5..9].copy_from_slice(&(src.index() as u32).to_le_bytes());
    hs[9..13].copy_from_slice(&(dst.index() as u32).to_le_bytes());
    stream.write_all(&hs)
}

fn read_handshake(stream: &mut TcpStream, me: ReplicaId) -> io::Result<ReplicaId> {
    let mut hs = [0u8; HANDSHAKE_LEN];
    stream.read_exact(&mut hs)?;
    if hs[..4] != HANDSHAKE_MAGIC || hs[4] != HANDSHAKE_VERSION {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad handshake"));
    }
    let src = u32::from_le_bytes([hs[5], hs[6], hs[7], hs[8]]);
    let dst = u32::from_le_bytes([hs[9], hs[10], hs[11], hs[12]]);
    if dst != me.index() as u32 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "handshake addressed to another replica",
        ));
    }
    Ok(ReplicaId::new(src))
}

fn acceptor_loop<M: Send + 'static>(
    me: ReplicaId,
    listener: TcpListener,
    inbox: Sender<Envelope<M>>,
    bell: Doorbell,
    codec: CodecFactory<M>,
    counters: Arc<TcpCounters>,
    shutdown: Arc<AtomicBool>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let inbox = inbox.clone();
                let bell = bell.clone();
                let codec = Arc::clone(&codec);
                let counters = Arc::clone(&counters);
                let shutdown = Arc::clone(&shutdown);
                spawn_net_thread(format!("prcc-tcp-r{}", me.index()), move || {
                    reader_loop(me, stream, inbox, bell, codec, counters, shutdown)
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(IO_TIMEOUT / 10);
            }
            Err(_) => std::thread::sleep(IO_TIMEOUT),
        }
    }
}

fn reader_loop<M: Send + 'static>(
    me: ReplicaId,
    mut stream: TcpStream,
    inbox: Sender<Envelope<M>>,
    bell: Doorbell,
    codec: CodecFactory<M>,
    counters: Arc<TcpCounters>,
    shutdown: Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let src = match read_handshake(&mut stream, me) {
        Ok(src) => src,
        Err(_) => return,
    };
    let mut link = (codec)(src);
    let mut frames = FrameBuffer::new(MAX_FRAME);
    let mut scratch = vec![0u8; 64 * 1024];
    while !shutdown.load(Ordering::SeqCst) {
        let n = match stream.read(&mut scratch) {
            Ok(0) => return, // peer closed; it will reconnect
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return,
        };
        counters.read_syscalls.fetch_add(1, Ordering::Relaxed);
        counters
            .bytes_received
            .fetch_add(n as u64, Ordering::Relaxed);
        frames.extend(&scratch[..n]);
        loop {
            match frames.next_frame() {
                Ok(Some(body)) => match link.decode(&body) {
                    Ok(msg) => {
                        counters.frames_received.fetch_add(1, Ordering::Relaxed);
                        let mut env = Envelope { src, dst: me, msg };
                        // Backpressure TCP rather than shed: the stream
                        // below us is reliable, so a full inbox should
                        // slow the sender, not silently drop.
                        loop {
                            match inbox.try_send(env) {
                                Ok(()) => {
                                    bell.ring();
                                    break;
                                }
                                Err(TrySendError::Full(e)) => {
                                    if shutdown.load(Ordering::SeqCst) {
                                        return;
                                    }
                                    env = e;
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                                Err(TrySendError::Disconnected(_)) => return,
                            }
                        }
                    }
                    Err(_) => {
                        // Transactional rejection: the connection dies;
                        // session retransmission repairs the payload on
                        // the replacement connection (fresh codec state
                        // both ends).
                        counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                },
                Ok(None) => break,
                Err(_) => {
                    counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

/// Writes `buf` fully, counting actual `write(2)` calls. Retries on the
/// socket write timeout unless shutdown fires.
fn write_counted(
    stream: &mut TcpStream,
    buf: &[u8],
    counters: &TcpCounters,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let mut off = 0;
    while off < buf.len() {
        match stream.write(&buf[off..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "write zero")),
            Ok(n) => {
                counters.write_syscalls.fetch_add(1, Ordering::Relaxed);
                counters.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
                off += n;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Err(io::Error::other("shutdown"));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn writer_loop<M: Send + 'static>(
    me: ReplicaId,
    peer: ReplicaId,
    peer_addr: SocketAddr,
    outbox: Receiver<M>,
    codec: CodecFactory<M>,
    counters: Arc<TcpCounters>,
    shutdown: Arc<AtomicBool>,
) {
    let mut conn: Option<(TcpStream, Box<dyn LinkCodec<Msg = M>>)> = None;
    let mut failures = 0u32;
    let mut connected_once = false;
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    while !shutdown.load(Ordering::SeqCst) {
        let msg = match outbox.recv_timeout(IO_TIMEOUT) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // (Re)connect with exponential backoff while holding the message.
        // Messages that queued up behind a dead link go stale, not lost:
        // the session layer deduplicates what it already delivered and
        // retransmits what the torn connection dropped.
        if conn.is_none() {
            match TcpStream::connect_timeout(&peer_addr, CONNECT_TIMEOUT) {
                Ok(mut stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    if write_handshake(&mut stream, me, peer).is_ok() {
                        if connected_once {
                            counters.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        connected_once = true;
                        failures = 0;
                        conn = Some((stream, (codec)(peer)));
                    } else {
                        failures += 1;
                    }
                }
                Err(_) => failures += 1,
            }
            if conn.is_none() {
                let backoff = RECONNECT_BASE
                    .saturating_mul(1u32 << failures.min(16))
                    .min(RECONNECT_MAX);
                std::thread::sleep(backoff);
                // The held message is dropped with the connection attempt
                // only if the queue is overflowing; otherwise it simply
                // waits for the next loop pass. Requeueing at the front
                // is not possible on a channel, so encode-and-lose is the
                // honest model: count it as shed.
                counters.shed_outbound.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        }
        let (stream, link) = conn.as_mut().expect("connected");
        buf.clear();
        encode_frame(link.as_mut(), &msg, &mut buf);
        let mut frames_in_buf = 1u64;
        // Drain whatever else is queued, bounded by buffer size, so one
        // syscall carries many session frames.
        while buf.len() < 256 * 1024 {
            let Ok(next) = outbox.try_recv() else { break };
            encode_frame(link.as_mut(), &next, &mut buf);
            frames_in_buf += 1;
        }
        match write_counted(stream, &buf, &counters, &shutdown) {
            Ok(()) => {
                counters
                    .frames_sent
                    .fetch_add(frames_in_buf, Ordering::Relaxed);
            }
            Err(_) => {
                // Connection torn down: everything unacked on it is the
                // session layer's to repair after reconnect.
                conn = None;
                failures = 0;
            }
        }
    }
}

fn encode_frame<M>(link: &mut dyn LinkCodec<Msg = M>, msg: &M, buf: &mut Vec<u8>) {
    let header_at = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    let body_start = buf.len();
    link.encode(msg, buf);
    let body_len = (buf.len() - body_start) as u32;
    buf[header_at..header_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }

    /// A stateless codec for plain u64 payloads.
    struct U64Codec;
    impl LinkCodec for U64Codec {
        type Msg = u64;
        fn encode(&mut self, msg: &u64, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&msg.to_le_bytes());
        }
        fn decode(&mut self, body: &[u8]) -> Result<u64, FrameError> {
            let bytes: [u8; 8] = body
                .try_into()
                .map_err(|_| FrameError::Malformed("u64 body"))?;
            Ok(u64::from_le_bytes(bytes))
        }
    }

    fn u64_factory() -> CodecFactory<u64> {
        Arc::new(|_| Box::new(U64Codec))
    }

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn pair(cfg: TcpNetConfig) -> (TcpEndpoint<u64>, TcpEndpoint<u64>) {
        let b0 = BoundListener::bind(r(0), loopback()).unwrap();
        let b1 = BoundListener::bind(r(1), loopback()).unwrap();
        let a0 = b0.local_addr();
        let a1 = b1.local_addr();
        let e0 = TcpEndpoint::start(b0, HashMap::from([(r(1), a1)]), cfg.clone(), u64_factory())
            .unwrap();
        let e1 = TcpEndpoint::start(b1, HashMap::from([(r(0), a0)]), cfg, u64_factory()).unwrap();
        (e0, e1)
    }

    #[test]
    fn point_to_point_over_sockets() {
        let (e0, e1) = pair(TcpNetConfig::default());
        let h0 = e0.handle();
        let h1 = e1.handle();
        assert!(h0.send(r(1), 42));
        let env = h1.recv_timeout(Duration::from_secs(5)).expect("delivery");
        assert_eq!(env.src, r(0));
        assert_eq!(env.msg, 42);
        assert!(h1.send(r(0), 7));
        assert_eq!(
            h0.recv_timeout(Duration::from_secs(5)).map(|e| e.msg),
            Some(7)
        );
        e0.shutdown();
        e1.shutdown();
    }

    #[test]
    fn many_frames_all_arrive_in_order_per_link() {
        let (e0, e1) = pair(TcpNetConfig::default());
        let h0 = e0.handle();
        let h1 = e1.handle();
        for i in 0..500u64 {
            while !h0.send(r(1), i) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let mut got = Vec::new();
        while got.len() < 500 {
            match h1.recv_timeout(Duration::from_secs(5)) {
                Some(env) => got.push(env.msg),
                None => panic!("lost frames: got {}", got.len()),
            }
        }
        // TCP + a single writer give per-link FIFO (stronger than the
        // Transport contract requires, but worth pinning for the codec).
        assert_eq!(got, (0..500).collect::<Vec<_>>());
        e0.shutdown();
        e1.shutdown();
    }

    #[test]
    fn coalescing_reduces_write_syscalls() {
        const SENT: u64 = 2000;
        let b0 = BoundListener::bind(r(0), loopback()).unwrap();
        let a0 = b0.local_addr();
        // Node 1's address is reserved but not listening: the writer
        // cannot connect, so it holds the burst until node 1 starts.
        let probe = TcpListener::bind(loopback()).unwrap();
        let a1 = probe.local_addr().unwrap();
        drop(probe);
        let cfg = TcpNetConfig::default();
        let e0 = TcpEndpoint::start(b0, HashMap::from([(r(1), a1)]), cfg.clone(), u64_factory())
            .unwrap();
        let h0 = e0.handle();
        // The outbox (4 096 deep) takes the whole burst.
        for i in 0..SENT {
            assert!(h0.send(r(1), i), "frame {i} shed on a queue with room");
        }
        let b1 = BoundListener::bind(r(1), a1).unwrap();
        let e1 = TcpEndpoint::start(b1, HashMap::from([(r(0), a0)]), cfg, u64_factory()).unwrap();
        let h1 = e1.handle();
        // Each connect that failed before node 1 listened dropped the
        // one frame the writer held; every other frame arrives.
        let mut delivered = 0;
        while delivered + e0.stats().shed_outbound < SENT {
            if h1.recv_timeout(Duration::from_secs(5)).is_none() {
                panic!("lost frames at {delivered}: {:?}", e0.stats());
            }
            delivered += 1;
        }
        // The writer counts a write's frames once the write returns.
        let t = std::time::Instant::now();
        while e0.stats().frames_sent < delivered && t.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = e0.stats();
        e0.shutdown();
        e1.shutdown();
        assert_eq!(delivered + stats.shed_outbound, SENT, "{stats:?}");
        assert_eq!(stats.frames_sent, delivered, "{stats:?}");
        assert!(delivered > SENT / 2, "the writer shed the burst: {stats:?}");
        // One write per frame would take over a thousand syscalls; the
        // queued burst is 24 KB, one 256 KiB coalescing buffer.
        assert!(
            stats.write_syscalls <= 8,
            "{delivered} queued frames took {} write syscalls: the writer is not coalescing",
            stats.write_syscalls
        );
    }

    #[test]
    fn connects_to_peer_that_starts_late() {
        let b0 = BoundListener::bind(r(0), loopback()).unwrap();
        let a0 = b0.local_addr();
        // Reserve an address for node 1 without serving yet.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let a1 = probe.local_addr().unwrap();
        drop(probe);
        let cfg = TcpNetConfig::default();
        let e0 = TcpEndpoint::start(b0, HashMap::from([(r(1), a1)]), cfg.clone(), u64_factory())
            .unwrap();
        let h0 = e0.handle();
        // Sends start before node 1 exists; the writer retries with
        // backoff and the session layer above would repair the shed ones
        // — here we just keep offering fresh messages.
        let stop = Arc::new(AtomicBool::new(false));
        let sender = {
            let stop = Arc::clone(&stop);
            let h0 = h0.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    h0.send(r(1), i);
                    i += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(150));
        let b1 = BoundListener::bind(r(1), a1).unwrap();
        let e1 = TcpEndpoint::start(b1, HashMap::from([(r(0), a0)]), cfg, u64_factory()).unwrap();
        let h1 = e1.handle();
        let env = h1.recv_timeout(Duration::from_secs(10));
        stop.store(true, Ordering::SeqCst);
        sender.join().unwrap();
        assert!(env.is_some(), "no delivery after late peer start");
        e0.shutdown();
        e1.shutdown();
    }

    #[test]
    fn zero_run_pack_roundtrip_and_bounds() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![1, 2, 3],
            vec![0; 1000],
            vec![1, 0, 0, 0, 5, 0, 9],
            (0..=255u8).collect(),
        ];
        for case in cases {
            let mut packed = Vec::new();
            pack_zero_runs(&case, &mut packed);
            let mut unpacked = Vec::new();
            unpack_zero_runs(&packed, &mut unpacked, case.len()).unwrap();
            assert_eq!(unpacked, case);
        }
        // A zero bomb is rejected by the bound, and a truncated run is
        // malformed.
        let mut out = Vec::new();
        assert!(unpack_zero_runs(&[0, 255, 0, 255], &mut out, 100).is_err());
        out.clear();
        assert!(unpack_zero_runs(&[1, 2, 0], &mut out, 100).is_err());
    }

    #[test]
    fn frame_buffer_handles_split_and_poison() {
        let mut fb = FrameBuffer::new(1024);
        let mut wire = Vec::new();
        for body in [b"hello".as_slice(), b"".as_slice(), b"world!".as_slice()] {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        // Feed one byte at a time.
        let mut out = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Ok(Some(frame)) = fb.next_frame() {
                out.push(frame);
            }
        }
        assert_eq!(
            out,
            vec![b"hello".to_vec(), b"".to_vec(), b"world!".to_vec()]
        );
        assert_eq!(fb.pending(), 0);
        // An oversized length poisons permanently.
        fb.extend(&u32::MAX.to_le_bytes());
        assert!(fb.next_frame().is_err());
        assert!(fb.is_poisoned());
        fb.extend(&[0, 0, 0, 0]);
        assert!(fb.next_frame().is_err());
    }
}
