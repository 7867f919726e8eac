//! Remote execution transport: the networked [`Worker`] and the server it
//! talks to — std-only TCP, no async runtime, no serde.
//!
//! This closes the ROADMAP's `RemoteRunner` item. The pieces:
//!
//! * **Frame codec** ([`write_frame`] / [`read_frame`]) — a 4-byte
//!   big-endian length prefix followed by a UTF-8 JSON payload, capped at
//!   [`MAX_FRAME_BYTES`]. Truncated, oversized or non-UTF-8 frames are
//!   [`SpecError`]s, never panics; the oversized check runs *before* the
//!   payload allocation, so a hostile length prefix cannot balloon memory.
//! * **Protocol** — version-tagged request/response objects in the
//!   workspace's hand-rolled JSON. A request is `ping` or `run_block`
//!   (the job's full [`ExperimentSpec`] plus a `[lo, hi)` replication
//!   range); a response carries the partial [`Summary`] in the lossless
//!   raw-parts encoding from `eacp_spec::report`, or an error string.
//! * **[`RemoteServer`]** — the `eacp serve` loop: accept, read requests,
//!   run each block with the same block reduction the local runners use,
//!   reply. One thread per connection, sequential requests within it.
//!   Resources are bounded: at most [`MAX_CONNECTIONS`] connections are
//!   served at once (the accept loop closes any beyond that), and a
//!   connection that sends no request, or does not take its reply, for
//!   [`IDLE_TIMEOUT`] is closed, so idle clients cannot pin threads.
//! * **[`RemoteWorker`]** — the client side of the [`Worker`] seam. Each
//!   leased block becomes one request: connect (with timeout), send,
//!   await the partial summary (read/write timeouts throughout). Failures
//!   rotate through the configured endpoints with a short backoff; if
//!   every endpoint fails the lease fails, and the work queue re-leases
//!   the block — on the final attempt the worker runs the block
//!   **in-process** instead ([`RemoteWorker::with_fallback_attempt`]), so
//!   a fully dead fleet degrades to local execution rather than a failed
//!   run.
//!
//! Determinism is inherited, not negotiated: per-replication seeding makes
//! a block's partial summary bit-identical wherever it executes, so N
//! servers × M workers — under any failure/retry/fallback schedule —
//! merge to exactly the [`crate::LocalRunner`] summary.

use crate::job::Job;
use crate::queue::{BlockAssignment, InProcessWorker, Worker};
use crate::workload::run_workload_block;
use eacp_sim::Summary;
use eacp_spec::{ExperimentSpec, FromJson, Json, QueueSpec, SpecError, ToJson};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Wire protocol version; bumped on any incompatible frame/JSON change.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on a single frame's payload. Large enough for any spec or
/// summary this workspace produces, small enough that a corrupt or
/// hostile length prefix cannot exhaust memory.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// How long a served connection may wait on its peer — for the next
/// request's bytes or for room to write a reply — before the server
/// closes it. Clients send their request as soon as they connect, so only
/// idle or wedged peers ever reach it.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Most connections a server handles at once. The accept loop closes any
/// connection beyond it immediately; clients retry or rotate endpoints.
pub const MAX_CONNECTIONS: usize = 64;

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> Result<(), SpecError> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(SpecError::invalid(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            bytes.len()
        )));
    }
    let len = (bytes.len() as u32).to_be_bytes();
    w.write_all(&len)
        .and_then(|()| w.write_all(bytes))
        .and_then(|()| w.flush())
        .map_err(|e| SpecError::Io(format!("frame write failed: {e}")))
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean end-of-stream
/// at a frame boundary (the peer closed the connection); anything partial
/// — a truncated prefix, a short payload, an oversized length, non-UTF-8
/// bytes — is an error, never a panic.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<String>, SpecError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        let n = r
            .read(&mut prefix[filled..])
            .map_err(|e| SpecError::Io(format!("frame length read failed: {e}")))?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(SpecError::Io(format!(
                "connection closed mid-frame ({filled} of 4 length bytes)"
            )));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(SpecError::invalid(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        SpecError::Io(format!(
            "connection closed mid-frame ({len}-byte payload): {e}"
        ))
    })?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| SpecError::invalid(format!("frame payload is not UTF-8: {e}")))
}

fn versioned(fields: Vec<(&'static str, Json)>) -> Json {
    let mut all = vec![("v", Json::from(PROTOCOL_VERSION))];
    all.extend(fields);
    Json::obj(all)
}

/// Serializes a `run_block` request for `[lo, hi)` of `spec`.
pub fn run_block_request(spec: &ExperimentSpec, lo: u64, hi: u64) -> String {
    versioned(vec![
        ("op", "run_block".into()),
        ("spec", spec.to_json()),
        ("lo", lo.into()),
        ("hi", hi.into()),
    ])
    .pretty()
}

/// Serializes a `ping` request.
pub fn ping_request() -> String {
    versioned(vec![("op", "ping".into())]).pretty()
}

/// Answers one request frame; protocol or execution errors become error
/// responses rather than dropped connections, so the client always learns
/// *why* (and its provenance wrapper names the endpoint and attempt).
pub fn answer_request(text: &str) -> String {
    match answer_inner(text) {
        Ok(response) => response,
        Err(e) => versioned(vec![("error", e.to_string().into())]).pretty(),
    }
}

fn answer_inner(text: &str) -> Result<String, SpecError> {
    let json = Json::parse(text)?;
    let v = json.req("v")?.as_u64()?;
    if v != PROTOCOL_VERSION {
        return Err(SpecError::invalid(format!(
            "unsupported protocol version {v} (this server speaks {PROTOCOL_VERSION})"
        )));
    }
    match json.req("op")?.as_str()? {
        "ping" => Ok(versioned(vec![("ok", true.into())]).pretty()),
        "run_block" => {
            let spec = ExperimentSpec::from_json(json.req("spec")?)?;
            let lo = json.req("lo")?.as_u64()?;
            let hi = json.req("hi")?.as_u64()?;
            let job = Job::from_spec(&spec)?;
            let reps = job.replications();
            if lo > hi || hi > reps {
                return Err(SpecError::invalid(format!(
                    "block range [{lo}, {hi}) is out of bounds for {reps} replications"
                )));
            }
            let summary = run_workload_block(&job, lo, hi);
            Ok(versioned(vec![("summary", summary.to_json())]).pretty())
        }
        other => Err(SpecError::invalid(format!(
            "unknown op {other:?} (expected ping or run_block)"
        ))),
    }
}

fn serve_connection(stream: TcpStream) {
    if stream
        .set_read_timeout(Some(IDLE_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IDLE_TIMEOUT)))
        .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = std::io::BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let request = match read_frame(&mut reader) {
            Ok(Some(text)) => text,
            // Clean close, a broken frame or an idle timeout: either way
            // the conversation is over; the client's timeouts and retries
            // own recovery.
            Ok(None) | Err(_) => return,
        };
        if write_frame(&mut writer, &answer_request(&request)).is_err() {
            return;
        }
    }
}

/// One occupied connection slot; dropping it (when the serving thread
/// ends, or when the thread could not be spawned) frees the slot.
struct ConnectionSlot<'a>(&'a AtomicUsize);

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Accepts until `stop` is set, serving each connection on its own scoped
/// thread; returns once every connection thread has ended (idle ones end
/// within [`IDLE_TIMEOUT`]).
fn accept_loop(listener: TcpListener, stop: &AtomicBool) {
    let live = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Only this thread takes slots, so the check cannot race
            // another taker; dropping the stream closes it.
            if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                continue;
            }
            live.fetch_add(1, Ordering::SeqCst);
            let slot = ConnectionSlot(&live);
            // A failed spawn drops the closure, which frees the slot and
            // closes the stream.
            let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
                let _slot = slot;
                serve_connection(stream);
            });
        }
    });
}

/// A background block-execution server: the in-process form of
/// `eacp serve`, used by tests and the benchmark. Binds, accepts on a
/// background thread, and answers `run_block`/`ping` requests until
/// [`shutdown`](RemoteServer::shutdown) (or drop).
pub struct RemoteServer {
    endpoint: String,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl RemoteServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting in the background.
    pub fn bind(addr: &str) -> Result<Self, SpecError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| SpecError::Io(format!("bind {addr}: {e}")))?;
        let endpoint = listener
            .local_addr()
            .map_err(|e| SpecError::Io(format!("local_addr of {addr}: {e}")))?
            .to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, &stop))
        };
        Ok(Self {
            endpoint,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound `host:port`, with any ephemeral port resolved.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Stops accepting and joins the accept thread, which waits for the
    /// connections being served: each ends at its client's EOF, or after
    /// [`IDLE_TIMEOUT`] when the client goes quiet.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for RemoteServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(&self.endpoint);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Binds `addr` and serves on the calling thread, forever — the
/// `eacp serve --listen addr` entry point. `on_ready` receives the bound
/// `host:port` (ephemeral ports resolved) before the first accept.
pub fn serve_blocking(addr: &str, on_ready: impl FnOnce(&str)) -> Result<(), SpecError> {
    let listener =
        TcpListener::bind(addr).map_err(|e| SpecError::Io(format!("bind {addr}: {e}")))?;
    let endpoint = listener
        .local_addr()
        .map_err(|e| SpecError::Io(format!("local_addr of {addr}: {e}")))?
        .to_string();
    on_ready(&endpoint);
    let never = AtomicBool::new(false);
    accept_loop(listener, &never);
    Ok(())
}

/// Pings `endpoint` once within `timeout`; `Ok` means a protocol-speaking
/// server answered.
pub fn ping(endpoint: &str, timeout: Duration) -> Result<(), SpecError> {
    let stream = connect(endpoint, timeout)?;
    let mut writer = &stream;
    write_frame(&mut writer, &ping_request())?;
    let mut reader = std::io::BufReader::new(&stream);
    let text = read_frame(&mut reader)?
        .ok_or_else(|| SpecError::Io(format!("{endpoint}: closed without a pong")))?;
    let json = Json::parse(&text)?;
    match json.get("ok") {
        Some(ok) if ok.as_bool()? => Ok(()),
        _ => Err(SpecError::Io(format!(
            "{endpoint}: unexpected ping response"
        ))),
    }
}

fn connect(endpoint: &str, timeout: Duration) -> Result<TcpStream, SpecError> {
    let addr = endpoint
        .to_socket_addrs()
        .map_err(|e| SpecError::Io(format!("resolve {endpoint}: {e}")))?
        .next()
        .ok_or_else(|| SpecError::Io(format!("resolve {endpoint}: no addresses")))?;
    let stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| SpecError::Io(format!("connect {endpoint}: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| SpecError::Io(format!("socket options for {endpoint}: {e}")))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Backoff before transport try `t` (1-based; no sleep before the first).
fn backoff(t: usize) -> Duration {
    Duration::from_millis(25u64.saturating_mul(1 << t.min(3).saturating_sub(1)))
}

/// The networked [`Worker`]: ships each leased block to one of a set of
/// `eacp serve` endpoints and deserializes the partial [`Summary`].
///
/// Failure handling is layered:
///
/// 1. **Within a lease attempt** — the worker tries every endpoint once,
///    starting from a rotation determined by `(block, attempt)` so load
///    spreads and retries start elsewhere, with a short backoff between
///    tries. Any response is better than none: server-reported errors and
///    transport errors both advance the rotation.
/// 2. **Across lease attempts** — if all endpoints fail, the lease fails
///    with a provenance error naming the last endpoint, the phase
///    (resolve/connect/write/read/decode) and the attempt/try numbers; the
///    work queue re-leases the block to a (possibly different) pool
///    worker, which tries a different rotation.
/// 3. **Final attempt** — at `with_fallback_attempt(n)` the block runs
///    in-process instead, so the run completes (bit-identically) even with
///    every endpoint dead; the queue's lease deadline
///    ([`RemoteWorker::lease_timeout`]) bounds how long a wedged transport
///    can hold a block before a peer reclaims it.
pub struct RemoteWorker {
    endpoints: Vec<String>,
    timeout: Duration,
    /// Lease attempt at (and after) which blocks run in-process; 0 never
    /// falls back.
    fallback_attempt: u32,
}

impl RemoteWorker {
    /// A worker over `endpoints` with a per-operation `timeout_ms` budget
    /// (connect, write and read each get this budget) and no in-process
    /// fallback.
    pub fn new(endpoints: Vec<String>, timeout_ms: u64) -> Self {
        Self {
            endpoints,
            timeout: Duration::from_millis(timeout_ms.max(1)),
            fallback_attempt: 0,
        }
    }

    /// The worker a validated [`QueueSpec`] asks for: its endpoints and
    /// timeout, falling back in-process on the final lease attempt.
    pub fn from_queue_spec(queue: &QueueSpec) -> Self {
        Self::new(queue.endpoints.clone(), queue.timeout_ms)
            .with_fallback_attempt(queue.max_attempts.max(1))
    }

    /// Runs blocks in-process from lease attempt `attempt` on (instead of
    /// failing the run once retry budgets are exhausted). 0 disables.
    pub fn with_fallback_attempt(mut self, attempt: u32) -> Self {
        self.fallback_attempt = attempt;
        self
    }

    /// A lease deadline safely above this worker's worst-case transport
    /// time for one attempt (every endpoint tried, each paying full
    /// connect + write + read timeouts plus backoff), so the queue only
    /// reclaims leases that are truly wedged.
    pub fn lease_timeout(&self) -> Duration {
        let tries = self.endpoints.len().max(1) as u32;
        let per_try = self
            .timeout
            .saturating_mul(3)
            .saturating_add(Duration::from_millis(200));
        per_try
            .saturating_mul(tries.saturating_mul(2))
            .max(Duration::from_secs(1))
    }

    fn request_summary(
        &self,
        endpoint: &str,
        request: &str,
        assignment: BlockAssignment,
        attempt: u32,
        this_try: usize,
        tries: usize,
    ) -> Result<Summary, SpecError> {
        // Every failure names where, when and at which phase it happened:
        // the endpoint, the lease attempt, the transport try, and the
        // protocol phase — `fleet-smoke` triage depends on this.
        let at = |phase: &str, detail: String| {
            SpecError::Io(format!(
                "remote endpoint {endpoint}: {phase} failed for block {} [{}, {}) \
                 on lease attempt {attempt}, transport try {this_try}/{tries}: {detail}",
                assignment.block, assignment.lo, assignment.hi
            ))
        };
        let stream = connect(endpoint, self.timeout).map_err(|e| at("connect", e.to_string()))?;
        let mut writer = &stream;
        write_frame(&mut writer, request).map_err(|e| at("write", e.to_string()))?;
        let mut reader = std::io::BufReader::new(&stream);
        let text = read_frame(&mut reader)
            .map_err(|e| at("read", e.to_string()))?
            .ok_or_else(|| {
                at(
                    "read",
                    "server closed the connection without replying".into(),
                )
            })?;
        let json = Json::parse(&text).map_err(|e| at("decode", e.to_string()))?;
        if let Some(error) = json.get("error") {
            let detail = error.as_str().unwrap_or("malformed error response");
            return Err(at("decode", format!("server reported: {detail}")));
        }
        let summary = json
            .req("summary")
            .and_then(Summary::from_json)
            .map_err(|e| at("decode", e.to_string()))?;
        let expected = assignment.hi - assignment.lo;
        if summary.replications != expected {
            return Err(at(
                "decode",
                format!(
                    "summary covers {} replications, expected {expected}",
                    summary.replications
                ),
            ));
        }
        Ok(summary)
    }
}

impl Worker for RemoteWorker {
    fn name(&self) -> &'static str {
        "remote"
    }

    fn run_assignment(
        &self,
        job: &Job,
        assignment: BlockAssignment,
        attempt: u32,
    ) -> Result<Summary, SpecError> {
        if self.endpoints.is_empty()
            || (self.fallback_attempt != 0 && attempt >= self.fallback_attempt)
        {
            return InProcessWorker.run_assignment(job, assignment, attempt);
        }
        let spec = job.spec().ok_or_else(|| {
            SpecError::invalid(
                "remote execution requires a spec-built job \
                 (Job::from_parts closures have no serializable form)",
            )
        })?;
        // The server runs the block directly; shipping the queue section
        // along would be circular and is result-neutral anyway.
        let mut spec = spec.clone();
        spec.executor.queue = None;
        let request = run_block_request(&spec, assignment.lo, assignment.hi);
        let n = self.endpoints.len();
        let start = (assignment.block as usize).wrapping_add(attempt as usize - 1) % n;
        let mut last_error = None;
        for t in 0..n {
            if t > 0 {
                std::thread::sleep(backoff(t));
            }
            let endpoint = &self.endpoints[(start + t) % n];
            match self.request_summary(endpoint, &request, assignment, attempt, t + 1, n) {
                Ok(summary) => return Ok(summary),
                Err(e) => last_error = Some(e),
            }
        }
        Err(last_error.unwrap_or_else(|| SpecError::Io("remote worker has no endpoints".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_spec::McSpec;

    fn spec(reps: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: reps,
            seed: 11,
            threads: 1,
        };
        spec
    }

    #[test]
    fn frame_codec_round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors_not_panics() {
        // Truncated length prefix.
        let mut r: &[u8] = &[0, 0];
        assert!(read_frame(&mut r).is_err());
        // Truncated payload.
        let mut r: &[u8] = &[0, 0, 0, 9, b'x'];
        assert!(read_frame(&mut r).is_err());
        // Oversized length prefix — rejected before allocating.
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        let err = read_frame(&mut r).unwrap_err().to_string();
        assert!(err.contains("exceeds"), "{err}");
        // Non-UTF-8 payload.
        let mut r: &[u8] = &[0, 0, 0, 2, 0xc3, 0x28];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn server_answers_ping_and_rejects_protocol_garbage() {
        let server = RemoteServer::bind("127.0.0.1:0").unwrap();
        ping(server.endpoint(), Duration::from_secs(5)).unwrap();
        // A version-less request gets an error response, not a hangup.
        let stream = connect(server.endpoint(), Duration::from_secs(5)).unwrap();
        let mut writer = &stream;
        write_frame(&mut writer, "{\"op\": \"ping\"}").unwrap();
        let mut reader = std::io::BufReader::new(&stream);
        let text = read_frame(&mut reader).unwrap().unwrap();
        assert!(text.contains("error"), "{text}");
        // Hang up first: shutdown waits for open connections.
        drop(reader);
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn run_block_request_round_trips_a_partial_summary() {
        let spec = spec(64);
        let job = Job::from_spec(&spec).unwrap();
        let expected = run_workload_block(&job, 16, 48);
        let response = answer_request(&run_block_request(&spec, 16, 48));
        let json = Json::parse(&response).unwrap();
        let summary = Summary::from_json(json.req("summary").unwrap()).unwrap();
        assert_eq!(summary, expected, "lossless summary transport");
    }

    #[test]
    fn out_of_range_blocks_and_bad_ops_are_error_responses() {
        let text = answer_request(&run_block_request(&spec(10), 5, 20));
        assert!(text.contains("out of bounds"), "{text}");
        let text = answer_request(&versioned(vec![("op", "explode".into())]).pretty());
        assert!(text.contains("unknown op"), "{text}");
        let text = answer_request("not json at all");
        assert!(text.contains("error"), "{text}");
    }

    #[test]
    fn endpoint_rotation_spreads_blocks_and_retries() {
        let w = RemoteWorker::new(vec!["a:1".into(), "b:1".into(), "c:1".into()], 100);
        let order = |block: u64, attempt: u32| {
            let start = (block as usize).wrapping_add(attempt as usize - 1) % w.endpoints.len();
            (0..w.endpoints.len())
                .map(|t| w.endpoints[(start + t) % w.endpoints.len()].clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(order(0, 1), ["a:1", "b:1", "c:1"]);
        assert_eq!(order(1, 1), ["b:1", "c:1", "a:1"]);
        // A retry of the same block starts at the next endpoint.
        assert_eq!(order(0, 2), ["b:1", "c:1", "a:1"]);
    }

    #[test]
    fn lease_timeout_covers_the_transport_budget() {
        let w = RemoteWorker::new(vec!["a:1".into(), "b:1".into()], 250);
        // 2 endpoints × (3 × 250ms + 200ms) × 2 headroom = 3.8s.
        assert!(w.lease_timeout() >= Duration::from_millis(1900));
        // Even a tiny budget keeps a sane floor.
        let w = RemoteWorker::new(vec!["a:1".into()], 1);
        assert!(w.lease_timeout() >= Duration::from_secs(1));
    }
}
