//! [`TcpTransport`]: coordinator-side message delivery over real
//! sockets, speaking the framed wire protocol of [`crate::wire`]
//! (specified in `docs/NETWORKING.md`).
//!
//! The transport holds one established, handshaken connection per
//! player, ordered by player index — [`crate::daemon::TcpCoordinator`]
//! produces it from the accept loop. Every delivery is one
//! [`Request`](crate::wire::WireMessage::Request) frame tagged with a
//! fresh correlation id; responses with stale ids (answers to a delivery
//! the coordinator already timed out) are discarded instead of
//! desynchronizing the stream, which is what makes the runtime's
//! bounded-retry loop sound over TCP.
//!
//! A [`Transport::pipeline`] hint becomes a **flight**: the hinted
//! requests are written ahead in one write per player, and each later
//! delivery of the flight's head takes the answer already on its way.
//! A flight longer than [`FLIGHT_BYTES`] goes out in chunks.
//!
//! Cost accounting is **unchanged** by this transport: the recorder
//! charges model bit costs (`bit_len`), never wire bytes, so a
//! fault-free TCP run produces accounting byte-identical to
//! [`LocalTransport`](super::LocalTransport) for the same
//! (protocol, seed, k).

use crate::daemon::{SessionHost, ACCEPT_POLL_INTERVAL};
use crate::message::Payload;
use crate::rand::SharedRandomness;
use crate::request::PlayerRequest;
use crate::runtime::{RunError, Transport, TransportError};
use crate::simultaneous::SimMessage;
use crate::wire::{self, WireError, WireMessage};
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default per-response deadline of a networked run. Generous because a
/// remote player may legitimately scan a large share; operators tune it
/// with `--timeout-secs`.
pub const DEFAULT_NET_TIMEOUT: Duration = Duration::from_secs(30);

/// The most bytes of `Request` frames a flight puts on one connection
/// at a time. The next chunk is written only once every answer to the
/// last has been read, so what is in flight stays far below a default
/// socket buffer and coordinator and player never both block in
/// `write`.
const FLIGHT_BYTES: usize = 8 * 1024;

/// Maps a wire-level failure on `player`'s connection onto the typed
/// [`RunError`] taxonomy (normative table in `docs/NETWORKING.md`):
/// read deadline → `Timeout` (retryable), garbled or version-confused
/// frame → `Corrupt` (retryable), dead socket → `Transport`
/// (player stays dead), protocol violation → `Aborted`.
fn map_wire(player: usize, e: WireError) -> RunError {
    if e.is_timeout() {
        return RunError::Timeout { player };
    }
    match e {
        WireError::Io(_) => RunError::Transport(TransportError { player }),
        WireError::Corrupt(_) | WireError::Version { .. } => RunError::Corrupt { player },
        WireError::Protocol(reason) => RunError::Aborted {
            reason: format!("player {player}: {reason}"),
        },
    }
}

/// A [`Transport`] over one TCP connection per player.
///
/// Constructed by
/// [`TcpCoordinator::accept_players`](crate::daemon::TcpCoordinator::accept_players)
/// once every expected player has completed the handshake.
///
/// # Example
///
/// A complete single-player loopback run — coordinator on one side,
/// [`PlayerSession`](crate::daemon::PlayerSession) on the other — driven
/// through a [`Runtime`](crate::runtime::Runtime) exactly like any
/// in-process transport:
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use std::time::Duration;
/// use triad_comm::daemon::{PlayerSession, ServeConfig, TcpCoordinator};
/// use triad_comm::runtime::SharedTransport;
/// use triad_comm::{
///     CostModel, Payload, PlayerRequest, PlayerState, Runtime, SharedRandomness, SimMessage,
/// };
/// use triad_graph::{Edge, VertexId};
///
/// let coordinator = TcpCoordinator::bind("127.0.0.1:0")?;
/// let addr = coordinator.local_addr()?;
/// let cfg = ServeConfig {
///     k: 1,
///     n: 4,
///     seed: 7,
///     cost_model: CostModel::Coordinator,
///     protocol: "unrestricted".into(),
///     params: String::new(),
/// };
///
/// let player = std::thread::spawn(move || {
///     let session = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
///     let share = vec![Edge::new(VertexId(0), VertexId(1))];
///     let state = PlayerState::new(session.welcome().player as usize, 4, &share);
///     session.serve(&state, |_, _| SimMessage::empty()).unwrap()
/// });
///
/// let transport = coordinator.accept_players(&cfg, Duration::from_secs(10))?;
/// let handle = Arc::new(Mutex::new(transport));
/// let mut rt = Runtime::new(
///     Box::new(SharedTransport::new(handle.clone())),
///     4,
///     SharedRandomness::new(7),
///     CostModel::Coordinator,
/// );
/// assert_eq!(rt.request(0, PlayerRequest::LocalEdgeCount), Payload::Count(1));
/// drop(rt);
/// handle.lock().unwrap().goodbye("done");
/// let summary = player.join().unwrap();
/// assert_eq!(summary.farewell.as_deref(), Some("done"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TcpTransport {
    conns: Vec<PlayerConn>,
    flights: Vec<Flight>,
    next_id: u64,
    timeout: Duration,
    pending_fault: Option<RunError>,
    session: Option<Arc<SessionHost>>,
}

/// The per-slot connection state machine (normative diagram in
/// `docs/NETWORKING.md`): a slot is `Active` over a live handshaken
/// socket, or `Detached` — its connection died mid-run while a
/// reconnect window holds the slot open for a resume claim. Without a
/// [`SessionHost`] (no reconnect window), slots never detach: the first
/// failure surfaces directly, exactly the pre-session behavior.
enum PlayerConn {
    /// A live connection, read through a buffer so a flight's answers
    /// cost one read between them rather than three per frame.
    Active(BufReader<TcpStream>),
    /// The connection died at `since`; `cause` is the failure that
    /// detached it. Deliveries poll for a rejoin until
    /// `since + window`, after which the run degrades with a typed
    /// `Aborted`.
    Detached { since: Instant, cause: RunError },
}

impl PlayerConn {
    fn is_active(&self) -> bool {
        matches!(self, PlayerConn::Active(_))
    }
}

/// One slot's pipelined requests, in delivery order.
#[derive(Default)]
struct Flight {
    /// Written ahead, answers not yet read: (correlation id, request).
    written: VecDeque<(u64, PlayerRequest)>,
    /// Not yet written: the part of the flight past the current chunk.
    queued: VecDeque<PlayerRequest>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("k", &self.conns.len())
            .field(
                "detached",
                &self.conns.iter().filter(|c| !c.is_active()).count(),
            )
            .field("timeout", &self.timeout)
            .field("pending_fault", &self.pending_fault)
            .field("session", &self.session)
            .finish()
    }
}

impl TcpTransport {
    /// Wraps already-handshaken connections, ordered by player index,
    /// arming each with the per-response read deadline.
    pub(crate) fn from_conns(conns: Vec<TcpStream>, timeout: Duration) -> Self {
        Self::build(conns, timeout, None)
    }

    /// [`from_conns`](Self::from_conns) plus the session host whose
    /// reconnect window lets detached slots rejoin mid-run.
    pub(crate) fn from_conns_with_session(
        conns: Vec<TcpStream>,
        timeout: Duration,
        session: Arc<SessionHost>,
    ) -> Self {
        Self::build(conns, timeout, Some(session))
    }

    fn build(conns: Vec<TcpStream>, timeout: Duration, session: Option<Arc<SessionHost>>) -> Self {
        let mut t = TcpTransport {
            flights: conns.iter().map(|_| Flight::default()).collect(),
            conns: conns
                .into_iter()
                .map(|c| PlayerConn::Active(BufReader::new(c)))
                .collect(),
            next_id: 0,
            timeout,
            pending_fault: None,
            session,
        };
        t.arm_timeouts();
        t
    }

    fn arm_timeouts(&mut self) {
        for conn in &self.conns {
            // A connection that cannot even accept a deadline is as good
            // as dead; the next delivery on it will surface the error.
            if let PlayerConn::Active(stream) = conn {
                let _ = stream.get_ref().set_read_timeout(Some(self.timeout));
            }
        }
    }

    /// Whether `e` is a failure the reconnect window absorbs: the
    /// connection went silent or died. Corrupt frames and protocol
    /// violations stay fatal-or-retryable exactly as before — they come
    /// from a *live* peer, so a rejoin would change nothing.
    fn detachable(&self, e: &RunError) -> bool {
        self.session.as_ref().is_some_and(|s| !s.window().is_zero())
            && matches!(e, RunError::Timeout { .. } | RunError::Transport(_))
    }

    /// Marks `player`'s slot detached as of now, recording the failure
    /// that killed the connection. Its flight dies with the connection.
    fn detach(&mut self, player: usize, cause: RunError) {
        self.flights[player] = Flight::default();
        self.conns[player] = PlayerConn::Detached {
            since: Instant::now(),
            cause,
        };
    }

    /// Ensures `player`'s slot has a live connection, blocking while its
    /// reconnect window is open: polls the session listener, reattaches
    /// any valid claimant (for *any* detached slot — rejoins are
    /// accepted even for players the current delivery is not waiting
    /// on), and fails with a typed `Aborted` once the window expires.
    /// Late claimants arriving after expiry are answered with a
    /// `WindowExpired` error frame by the same poll.
    fn ensure_active(&mut self, player: usize) -> Result<(), RunError> {
        if self.conns[player].is_active() {
            return Ok(());
        }
        let Some(session) = self.session.clone() else {
            // Unreachable by construction (slots only detach when a
            // session exists), but typed rather than trusted.
            return Err(RunError::Transport(TransportError { player }));
        };
        let window = session.window();
        loop {
            let now = Instant::now();
            let mut detached = vec![false; self.conns.len()];
            let mut expired = vec![false; self.conns.len()];
            for (j, conn) in self.conns.iter().enumerate() {
                if let PlayerConn::Detached { since, .. } = conn {
                    detached[j] = true;
                    expired[j] = now >= *since + window;
                }
            }
            if let Some((slot, stream)) = session.poll_claimants(&detached, &expired, self.timeout)
            {
                let _ = stream.set_read_timeout(Some(self.timeout));
                self.conns[slot] = PlayerConn::Active(BufReader::new(stream));
                if slot == player {
                    // One final drain so claimants racing this rejoin
                    // (the duplicate-claim race) get their typed
                    // SlotAttached answer now, not at the next detach.
                    self.drain_claimants(&session);
                    return Ok(());
                }
                // Another slot rejoined; recompute the masks and keep
                // draining without sleeping.
                continue;
            }
            if expired[player] {
                if let PlayerConn::Detached { cause, .. } = &self.conns[player] {
                    return Err(RunError::Aborted {
                        reason: format!(
                            "player {player} reconnect window expired after {} ms ({cause})",
                            window.as_millis()
                        ),
                    });
                }
            }
            std::thread::sleep(ACCEPT_POLL_INTERVAL);
        }
    }

    /// Empties the accept backlog once, attaching any valid claimant
    /// for a still-detached slot and answering the rest with typed
    /// rejections. Returns when the backlog is empty.
    fn drain_claimants(&mut self, session: &Arc<SessionHost>) {
        let window = session.window();
        loop {
            let now = Instant::now();
            let mut detached = vec![false; self.conns.len()];
            let mut expired = vec![false; self.conns.len()];
            for (j, conn) in self.conns.iter().enumerate() {
                if let PlayerConn::Detached { since, .. } = conn {
                    detached[j] = true;
                    expired[j] = now >= *since + window;
                }
            }
            match session.poll_claimants(&detached, &expired, self.timeout) {
                Some((slot, stream)) => {
                    let _ = stream.set_read_timeout(Some(self.timeout));
                    self.conns[slot] = PlayerConn::Active(BufReader::new(stream));
                }
                None => return,
            }
        }
    }

    /// The live stream for `player`; typed failure if the slot is
    /// detached (callers go through [`ensure_active`](Self::ensure_active)
    /// first).
    fn active(&mut self, player: usize) -> Result<&mut BufReader<TcpStream>, RunError> {
        match &mut self.conns[player] {
            PlayerConn::Active(stream) => Ok(stream),
            PlayerConn::Detached { .. } => Err(RunError::Transport(TransportError { player })),
        }
    }

    /// Test hook: drops `player`'s live connection (closing the socket
    /// under the remote peer) and marks the slot detached, as if the
    /// coordinator had just observed the disconnect.
    #[cfg(test)]
    pub(crate) fn sever_for_test(&mut self, player: usize) {
        self.detach(player, RunError::Transport(TransportError { player }));
    }

    /// Replaces the per-response deadline (builder-style).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self.arm_timeouts();
        self
    }

    /// The per-response deadline in force.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Writes the next chunk of `player`'s queued flight — at least one
    /// frame, at most [`FLIGHT_BYTES`] unless one frame alone is larger —
    /// in one write.
    fn write_ahead(&mut self, player: usize) -> Result<(), RunError> {
        let flight = &mut self.flights[player];
        let mut chunk = Vec::new();
        while let Some(req) = flight.queued.pop_front() {
            let id = self.next_id + 1;
            let start = chunk.len();
            let msg = WireMessage::Request {
                id,
                req: req.clone(),
            };
            wire::write_frame(&mut chunk, &msg).expect("writing to a Vec cannot fail");
            if start > 0 && chunk.len() > FLIGHT_BYTES {
                chunk.truncate(start);
                flight.queued.push_front(req);
                break;
            }
            self.next_id = id;
            flight.written.push_back((id, req));
        }
        self.active(player)?
            .get_mut()
            .write_all(&chunk)
            .map_err(|_| RunError::Transport(TransportError { player }))
    }

    /// Puts `req` on `player`'s wire and returns its correlation id.
    /// When `req` heads the slot's flight, it is already written (or
    /// goes out now with the next chunk) under its flight id. Any other
    /// request drops the flight and is written alone under a fresh id;
    /// the answers to what was written ahead then arrive with smaller
    /// ids and are discarded as stale.
    fn send(&mut self, player: usize, req: &PlayerRequest) -> Result<u64, RunError> {
        let flight = &self.flights[player];
        if flight.written.is_empty() && flight.queued.front() == Some(req) {
            self.write_ahead(player)?;
        }
        let flight = &mut self.flights[player];
        if let Some((id, _)) = flight.written.front().filter(|(_, ahead)| ahead == req) {
            let id = *id;
            flight.written.pop_front();
            return Ok(id);
        }
        *flight = Flight::default();
        let id = self.fresh_id();
        let msg = WireMessage::Request {
            id,
            req: req.clone(),
        };
        wire::write_frame(self.active(player)?.get_mut(), &msg)
            .map_err(|_| RunError::Transport(TransportError { player }))?;
        Ok(id)
    }

    /// Asks every player for its one-shot simultaneous message, in
    /// player order — the networked gather feeding
    /// [`run_simultaneous_collected`](crate::simultaneous::run_simultaneous_collected).
    ///
    /// # Errors
    ///
    /// Returns the first delivery failure, mapped onto [`RunError`] like
    /// any other exchange.
    pub fn collect_sim_messages(&mut self) -> Result<Vec<SimMessage<'static>>, RunError> {
        if let Some(f) = self.pending_fault.take() {
            return Err(f);
        }
        let mut out = Vec::with_capacity(self.conns.len());
        for player in 0..self.conns.len() {
            // The same detach-and-rejoin loop as `try_deliver`: a gather
            // interrupted by a disconnect replays the sim request on the
            // rejoined connection with a fresh id — invisible to cost
            // accounting, identical to an uninterrupted gather.
            self.flights[player] = Flight::default();
            let message = loop {
                self.ensure_active(player)?;
                let id = self.fresh_id();
                let attempt = {
                    let stream = self.active(player)?;
                    wire::write_frame(stream.get_mut(), &WireMessage::SimRequest { id })
                        .map_err(|_| RunError::Transport(TransportError { player }))
                        .and_then(|()| await_sim_response(stream, player, id))
                };
                match attempt {
                    Ok(message) => break message,
                    Err(e) if self.detachable(&e) => self.detach(player, e),
                    Err(e) => return Err(e),
                }
            };
            out.push(message);
        }
        Ok(out)
    }

    /// Best-effort farewell: sends a [`Goodbye`](WireMessage::Goodbye)
    /// carrying the run's verdict line to every player, so remote
    /// sessions exit cleanly instead of reading EOF. Errors are ignored —
    /// the run is already over. Detached slots are skipped (their
    /// connection is gone; a claimant arriving later finds the listener
    /// closed).
    pub fn goodbye(&mut self, summary: &str) {
        let msg = WireMessage::Goodbye {
            summary: summary.to_owned(),
        };
        for conn in &mut self.conns {
            if let PlayerConn::Active(stream) = conn {
                let _ = wire::write_frame(stream.get_mut(), &msg);
            }
        }
    }
}

/// Reads frames from `player`'s stream until the `Response` with
/// correlation id `id` arrives, discarding stale responses along the
/// way.
fn await_response(
    stream: &mut impl Read,
    player: usize,
    id: u64,
) -> Result<Payload<'static>, RunError> {
    loop {
        match wire::read_frame(stream) {
            Ok(WireMessage::Response { id: got, payload }) if got == id => return Ok(payload),
            Ok(
                WireMessage::Response { id: got, .. } | WireMessage::SimResponse { id: got, .. },
            ) if got < id => {
                // A late answer to a delivery the runtime already
                // timed out and retried: drop it, keep reading.
                continue;
            }
            Ok(WireMessage::Error { reason, .. }) => {
                return Err(RunError::Aborted {
                    reason: format!("player {player}: {reason}"),
                })
            }
            Ok(other) => {
                return Err(RunError::Aborted {
                    reason: format!("player {player} sent an unexpected {} frame", other.kind()),
                })
            }
            Err(e) => return Err(map_wire(player, e)),
        }
    }
}

/// [`await_response`] for the simultaneous gather: waits for the
/// `SimResponse` with correlation id `id`.
fn await_sim_response(
    stream: &mut impl Read,
    player: usize,
    id: u64,
) -> Result<SimMessage<'static>, RunError> {
    loop {
        match wire::read_frame(stream) {
            Ok(WireMessage::SimResponse { id: got, message }) if got == id => return Ok(message),
            Ok(
                WireMessage::Response { id: got, .. } | WireMessage::SimResponse { id: got, .. },
            ) if got < id => continue,
            Ok(WireMessage::Error { reason, .. }) => {
                return Err(RunError::Aborted {
                    reason: format!("player {player}: {reason}"),
                })
            }
            Ok(other) => {
                return Err(RunError::Aborted {
                    reason: format!("player {player} sent an unexpected {} frame", other.kind()),
                })
            }
            Err(e) => return Err(map_wire(player, e)),
        }
    }
}

impl Transport for TcpTransport {
    fn k(&self) -> usize {
        self.conns.len()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        if let Some(f) = self.pending_fault.take() {
            return Err(f);
        }
        // The reconnect loop: a delivery interrupted by a disconnect
        // waits out the rejoin (bounded by the session window) and
        // replays the request with a fresh correlation id on the new
        // connection. The replay happens entirely below the runtime's
        // charging layer, so a run interrupted and resumed is
        // bit-identical — verdict, stats and tally — to an
        // uninterrupted one (docs/NETWORKING.md).
        loop {
            self.ensure_active(player)?;
            let attempt = self
                .send(player, req)
                .and_then(|id| await_response(self.active(player)?, player, id));
            match attempt {
                Ok(payload) => return Ok(payload),
                Err(e) if self.detachable(&e) => self.detach(player, e),
                Err(e) => return Err(e),
            }
        }
    }

    fn pipeline(&mut self, player: usize, reqs: &[PlayerRequest]) {
        self.flights[player] = Flight {
            written: VecDeque::new(),
            queued: reqs.iter().cloned().collect(),
        };
        if self.write_ahead(player).is_err() {
            // A detached slot or a dead connection: the next delivery
            // finds out and detaches or fails as it would unpipelined.
            self.flights[player] = Flight::default();
        }
    }

    fn adopt_shared(&mut self, shared: SharedRandomness) {
        // The trait signature is infallible (in-process transports cannot
        // fail here), so a network failure is parked and surfaced by the
        // next delivery instead of panicking on a dead peer.
        if self.pending_fault.is_some() {
            return;
        }
        let seed = shared.seed();
        self.flights.iter_mut().for_each(|f| *f = Flight::default());
        // Record the seed *before* telling anyone: a player that
        // detaches mid-reseed learns the new seed from its rejoin
        // Welcome instead of the lost AdoptShared frame.
        if let Some(session) = &self.session {
            session.note_seed(seed);
        }
        for player in 0..self.conns.len() {
            // A detached slot owes no Ack: re-arm its window (each run
            // in persistent mode grants a fresh rejoin opportunity) and
            // let the rejoin Welcome carry the seed.
            if let PlayerConn::Detached { since, .. } = &mut self.conns[player] {
                *since = Instant::now();
                continue;
            }
            let attempt = self.active(player).and_then(|stream| {
                wire::write_frame(stream.get_mut(), &WireMessage::AdoptShared { seed })
                    .map_err(|_| RunError::Transport(TransportError { player }))
                    .and_then(|()| await_ack(stream, player))
            });
            match attempt {
                Ok(()) => {}
                Err(e) if self.detachable(&e) => {
                    // The slot detaches with a fresh window; the seed
                    // travels in the rejoin Welcome, so there is
                    // nothing to retry here.
                    self.detach(player, e);
                }
                Err(e) => {
                    self.pending_fault = Some(e);
                    return;
                }
            }
        }
    }
}

/// Waits for the `Ack` answering an `AdoptShared`, discarding stale
/// data responses along the way.
fn await_ack(stream: &mut impl Read, player: usize) -> Result<(), RunError> {
    loop {
        match wire::read_frame(stream) {
            Ok(WireMessage::Ack) => return Ok(()),
            Ok(WireMessage::Response { .. } | WireMessage::SimResponse { .. }) => continue,
            Ok(WireMessage::Error { reason, .. }) => {
                return Err(RunError::Aborted {
                    reason: format!("player {player}: {reason}"),
                })
            }
            Ok(other) => {
                return Err(RunError::Aborted {
                    reason: format!("player {player} sent an unexpected {} frame", other.kind()),
                })
            }
            Err(e) => return Err(map_wire(player, e)),
        }
    }
}

/// A cloneable [`Transport`] handle over a mutex-guarded inner
/// transport.
///
/// [`Runtime`](crate::runtime::Runtime) consumes its transport as
/// `Box<dyn Transport>`, which would strand a [`TcpTransport`]'s
/// connections inside the finished runtime — no way to send the final
/// [`goodbye`](TcpTransport::goodbye) or inspect fault counters.
/// `SharedTransport` keeps the inner transport behind an
/// `Arc<Mutex<…>>`: hand one clone to the runtime, keep the `Arc`.
/// All trait methods delegate — including `try_deliver_framed`, so a
/// wrapped fault-injecting transport keeps its override.
pub struct SharedTransport<T: Transport> {
    inner: Arc<Mutex<T>>,
}

impl<T: Transport> SharedTransport<T> {
    /// Wraps a shared inner transport.
    pub fn new(inner: Arc<Mutex<T>>) -> Self {
        SharedTransport { inner }
    }

    fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Transport> Clone for SharedTransport<T> {
    fn clone(&self) -> Self {
        SharedTransport {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Transport> Transport for SharedTransport<T> {
    fn k(&self) -> usize {
        self.lock().k()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        self.lock().try_deliver(player, req)
    }

    fn try_deliver_framed(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<crate::fault::Framed, RunError> {
        self.lock().try_deliver_framed(player, req)
    }

    fn adopt_shared(&mut self, shared: SharedRandomness) {
        self.lock().adopt_shared(shared);
    }

    fn pipeline(&mut self, player: usize, reqs: &[PlayerRequest]) {
        self.lock().pipeline(player, reqs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::experiments;
    use crate::runtime::RunErrorKind;
    use std::net::TcpListener;

    fn pair() -> (TcpListener, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    #[test]
    fn stale_responses_are_discarded_until_the_matching_id() {
        let (listener, addr) = pair();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let id = match wire::read_frame(&mut s).unwrap() {
                WireMessage::Request { id, .. } => id,
                other => panic!("expected request, got {other:?}"),
            };
            // A late answer to an earlier (timed-out) delivery first…
            wire::write_frame(
                &mut s,
                &WireMessage::Response {
                    id: id - 1,
                    payload: Payload::Bit(false),
                },
            )
            .unwrap();
            // …then the real one.
            wire::write_frame(
                &mut s,
                &WireMessage::Response {
                    id,
                    payload: Payload::Bit(true),
                },
            )
            .unwrap();
            s
        });
        let conn = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::from_conns(vec![conn], Duration::from_secs(10));
        // Burn an id so the server's `id - 1` is a valid stale id.
        t.next_id = 1;
        let resp = t.try_deliver(0, &PlayerRequest::LocalEdgeCount).unwrap();
        assert_eq!(resp, Payload::Bit(true));
        drop(server.join().unwrap());
    }

    /// What [`answer_all`] replies: the tag for a sampling experiment,
    /// 999 for anything else.
    fn answer(req: &PlayerRequest) -> Payload<'static> {
        match req {
            PlayerRequest::SampleHit { tag, .. } => Payload::Count(*tag),
            _ => Payload::Count(999),
        }
    }

    /// Answers every request on `reader` at once and in order, as an
    /// unpipelined peer does, until the coordinator hangs up. Returns
    /// how many requests it answered.
    fn answer_all(reader: impl Read, s: &TcpStream) -> u64 {
        let mut reader = BufReader::new(reader);
        let mut answered = 0;
        while let Ok(WireMessage::Request { id, req }) = wire::read_frame(&mut reader) {
            let payload = answer(&req);
            wire::write_frame(&mut &*s, &WireMessage::Response { id, payload }).unwrap();
            answered += 1;
        }
        answered
    }

    #[test]
    fn a_flight_past_the_byte_bound_goes_out_in_chunks_and_answers_in_order() {
        let reqs = experiments(600);
        let mut whole = Vec::new();
        for req in &reqs {
            let msg = WireMessage::Request {
                id: 1,
                req: req.clone(),
            };
            wire::write_frame(&mut whole, &msg).unwrap();
        }
        assert!(
            whole.len() > 2 * FLIGHT_BYTES,
            "premise: the flight needs chunks"
        );
        let (listener, addr) = pair();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            // Take everything written ahead before answering anything:
            // read until the coordinator has gone quiet.
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let mut ahead = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                match (&s).read(&mut buf) {
                    Ok(0) => break,
                    Ok(got) => ahead.extend_from_slice(&buf[..got]),
                    Err(_) if !ahead.is_empty() => break,
                    Err(_) => {}
                }
            }
            s.set_read_timeout(None).unwrap();
            let first_chunk = ahead.len();
            let answered = answer_all(std::io::Cursor::new(ahead).chain(&s), &s);
            (first_chunk, answered)
        });
        let conn = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::from_conns(vec![conn], Duration::from_secs(10));
        t.pipeline(0, &reqs);
        for req in &reqs {
            assert_eq!(t.try_deliver(0, req), Ok(answer(req)));
        }
        drop(t);
        let (first_chunk, answered) = server.join().unwrap();
        assert!(
            first_chunk <= FLIGHT_BYTES && first_chunk > FLIGHT_BYTES / 2,
            "first chunk {first_chunk} bytes"
        );
        assert_eq!(answered, 600, "each request went out exactly once");
    }

    #[test]
    fn a_request_off_the_flight_discards_the_answers_written_ahead() {
        let (listener, addr) = pair();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            answer_all(&s, &s)
        });
        let conn = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::from_conns(vec![conn], Duration::from_secs(10));
        let reqs = experiments(4);
        t.pipeline(0, &reqs);
        assert_eq!(t.try_deliver(0, &reqs[0]), Ok(answer(&reqs[0])));
        // Off the flight: the answers to reqs[1..] arrive first and are
        // stale under the fresh id.
        let off = PlayerRequest::LocalEdgeCount;
        assert_eq!(t.try_deliver(0, &off), Ok(Payload::Count(999)));
        assert!(t.flights[0].written.is_empty() && t.flights[0].queued.is_empty());
        // The flight is gone: reqs[1] goes out again, alone.
        assert_eq!(t.try_deliver(0, &reqs[1]), Ok(answer(&reqs[1])));
        drop(t);
        assert_eq!(
            server.join().unwrap(),
            6,
            "4 ahead, 1 off the flight, 1 resent"
        );
    }

    #[test]
    fn silence_maps_to_timeout() {
        let (listener, addr) = pair();
        let conn = TcpStream::connect(addr).unwrap();
        let (held, _) = listener.accept().unwrap();
        let mut t = TcpTransport::from_conns(vec![conn], Duration::from_millis(50));
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert_eq!(err.kind(), RunErrorKind::Timeout);
        assert_eq!(err.player(), Some(0));
        assert!(err.is_retryable());
        drop(held);
    }

    #[test]
    fn garbled_frames_map_to_corrupt() {
        let (listener, addr) = pair();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let id = match wire::read_frame(&mut s).unwrap() {
                WireMessage::Request { id, .. } => id,
                other => panic!("expected request, got {other:?}"),
            };
            let mut buf = Vec::new();
            wire::write_frame(
                &mut buf,
                &WireMessage::Response {
                    id,
                    payload: Payload::Count(9),
                },
            )
            .unwrap();
            // Flip a body bit so the checksum fails on arrival.
            let at = buf.len() - 9;
            buf[at] ^= 0x01;
            s.write_all(&buf).unwrap();
            s.flush().unwrap();
            s
        });
        let conn = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::from_conns(vec![conn], Duration::from_secs(10));
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert_eq!(err.kind(), RunErrorKind::Corrupt);
        assert!(err.is_retryable());
        drop(server.join().unwrap());
    }

    #[test]
    fn hangup_maps_to_transport_and_is_not_retryable() {
        let (listener, addr) = pair();
        let conn = TcpStream::connect(addr).unwrap();
        drop(listener.accept().unwrap()); // peer hangs up immediately
        let mut t = TcpTransport::from_conns(vec![conn], Duration::from_secs(10));
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert_eq!(err.kind(), RunErrorKind::Transport);
        assert!(!err.is_retryable());
    }

    #[test]
    fn shared_transport_delegates_and_survives_clone() {
        let (listener, addr) = pair();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            for _ in 0..2 {
                let id = match wire::read_frame(&mut s).unwrap() {
                    WireMessage::Request { id, .. } => id,
                    other => panic!("expected request, got {other:?}"),
                };
                wire::write_frame(
                    &mut s,
                    &WireMessage::Response {
                        id,
                        payload: Payload::Count(3),
                    },
                )
                .unwrap();
            }
            s
        });
        let conn = TcpStream::connect(addr).unwrap();
        let inner = Arc::new(Mutex::new(TcpTransport::from_conns(
            vec![conn],
            Duration::from_secs(10),
        )));
        let mut handle = SharedTransport::new(inner.clone());
        assert_eq!(handle.k(), 1);
        let mut other = handle.clone();
        assert_eq!(
            handle
                .try_deliver(0, &PlayerRequest::LocalEdgeCount)
                .unwrap(),
            Payload::Count(3)
        );
        assert_eq!(
            other
                .try_deliver(0, &PlayerRequest::LocalEdgeCount)
                .unwrap(),
            Payload::Count(3)
        );
        drop(server.join().unwrap());
    }
}
