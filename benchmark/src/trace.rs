//! Trace decorators, used only in traced runs. Each one plugs into a
//! public trait of the program, forwards every call unchanged, and
//! records how long the wrapped layer took.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use triad_comm::wire::{read_frame, write_frame};
use triad_comm::{
    BitCost, CommStats, Direction, Framed, Payload, PlayerRequest, PlayerState, Recorder, RunError,
    SharedRandomness, SimMessage, SimultaneousProtocol, Tally, Transport, WireMessage,
    DEFAULT_PHASE,
};

/// Adds `d` to the entry for `key`, keeping first-seen order.
pub(crate) fn add<K: PartialEq>(spent: &mut Vec<(K, Duration)>, key: K, d: Duration) {
    match spent.iter_mut().find(|(k, _)| *k == key) {
        Some((_, total)) => *total += d,
        None => spent.push((key, d)),
    }
}

/// A [`Recorder`] that charges wall time to the phase in force: it
/// stamps the clock at each `set_phase` and otherwise forwards to a
/// [`Tally`]. Phase scopes restore the outer phase on exit, so the time
/// charged to a phase is its self time.
#[derive(Debug, Clone)]
pub struct PhaseClock {
    inner: Tally,
    phase: &'static str,
    since: Instant,
    spent: Vec<(&'static str, Duration)>,
}

impl PhaseClock {
    fn charge(&mut self) {
        let now = Instant::now();
        add(&mut self.spent, self.phase, now - self.since);
        self.since = now;
    }

    /// Closes the phase in force and returns the wall time spent in each
    /// phase since the recorder was created, in first-seen order.
    pub fn finish(mut self) -> Vec<(&'static str, Duration)> {
        self.charge();
        self.spent
    }
}

impl Recorder for PhaseClock {
    fn with_players(k: usize) -> Self {
        PhaseClock {
            inner: Tally::with_players(k),
            phase: DEFAULT_PHASE,
            since: Instant::now(),
            spent: Vec::new(),
        }
    }

    fn record(
        &mut self,
        player: Option<usize>,
        direction: Direction,
        bits: BitCost,
        label: &'static str,
    ) {
        self.inner.record(player, direction, bits, label);
    }

    fn next_round(&mut self) {
        self.inner.next_round();
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }

    fn set_phase(&mut self, phase: &'static str) {
        self.charge();
        self.phase = phase;
        self.inner.set_phase(phase);
    }

    fn current_phase(&self) -> &'static str {
        self.inner.current_phase()
    }

    fn total_bits(&self) -> BitCost {
        self.inner.total_bits()
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn absorb(&mut self, other: &Self) {
        self.inner.absorb(&other.inner);
        for &(phase, d) in &other.spent {
            add(&mut self.spent, phase, d);
        }
    }

    fn reserve_messages(&mut self, additional: usize) {
        self.inner.reserve_messages(additional);
    }

    fn bits_for_label(&self, label: &str) -> u64 {
        self.inner.bits_for_label(label)
    }
}

/// A [`SimultaneousProtocol`] wrapper that times every `message` and the
/// `referee`.
#[derive(Debug)]
pub struct TimedSim<P> {
    inner: P,
    message: Cell<Duration>,
    referee: Cell<Duration>,
}

impl<P> TimedSim<P> {
    /// Wraps `inner` with zeroed clocks.
    pub fn new(inner: P) -> Self {
        TimedSim {
            inner,
            message: Cell::new(Duration::ZERO),
            referee: Cell::new(Duration::ZERO),
        }
    }

    /// Total time spent in `message` (all players) and in `referee`.
    pub fn spent(&self) -> (Duration, Duration) {
        (self.message.get(), self.referee.get())
    }
}

impl<P: SimultaneousProtocol> SimultaneousProtocol for TimedSim<P> {
    type Output = P::Output;

    fn message<'a>(&self, player: &'a PlayerState, shared: &SharedRandomness) -> SimMessage<'a> {
        let start = Instant::now();
        let m = self.inner.message(player, shared);
        self.message.set(self.message.get() + start.elapsed());
        m
    }

    fn referee(
        &self,
        n: usize,
        messages: &[SimMessage],
        shared: &SharedRandomness,
    ) -> Self::Output {
        let start = Instant::now();
        let out = self.inner.referee(n, messages, shared);
        self.referee.set(self.referee.get() + start.elapsed());
        out
    }
}

/// What a [`TimedTransport`] saw: the duration of every framed delivery
/// and, for re-encoding, each request with the payload it returned.
#[derive(Debug, Default)]
pub struct DeliveryLog {
    /// Wall time of each `try_deliver_framed` call.
    pub times: Vec<Duration>,
    /// Each successful delivery's request and response payload.
    pub exchanges: Vec<(PlayerRequest, Payload<'static>)>,
}

/// A [`Transport`] decorator that times `try_deliver_framed`. It
/// forwards `try_deliver_framed`, `try_deliver`, `adopt_shared` and `k`
/// unchanged; the log is shared so it outlives the runtime that owns
/// the transport.
pub struct TimedTransport<T> {
    inner: T,
    log: Arc<Mutex<DeliveryLog>>,
}

impl<T> TimedTransport<T> {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: T, log: Arc<Mutex<DeliveryLog>>) -> Self {
        TimedTransport { inner, log }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        self.inner.try_deliver(player, req)
    }

    fn try_deliver_framed(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Framed, RunError> {
        let start = Instant::now();
        let framed = self.inner.try_deliver_framed(player, req);
        let took = start.elapsed();
        let mut log = self.log.lock().expect("delivery log is never poisoned");
        log.times.push(took);
        if let Ok(f) = &framed {
            log.exchanges.push((req.clone(), f.payload().clone()));
        }
        framed
    }

    fn adopt_shared(&mut self, shared: SharedRandomness) {
        self.inner.adopt_shared(shared);
    }
}

/// The cost of one run's frames through the wire codec, computed by
/// re-encoding them (not measured on the socket).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireCost {
    /// Frames encoded.
    pub frames: u64,
    /// Bytes of those frames, length prefix and checksum included.
    pub bytes: u64,
    /// Total time in `write_frame`.
    pub encode: Duration,
    /// Total time in `read_frame`.
    pub decode: Duration,
}

/// Re-encodes one served run's frames through `write_frame` and
/// `read_frame`: an `AdoptShared` and its `Ack` per player, then a
/// `Request` and its `Response` per delivery.
///
/// # Errors
///
/// Names the first frame that fails to encode, or that decodes to
/// anything but itself.
pub fn reencode(
    exchanges: &[(PlayerRequest, Payload<'static>)],
    k: usize,
    seed: u64,
) -> Result<WireCost, String> {
    let mut frames = Vec::with_capacity(2 * (k + exchanges.len()));
    for _ in 0..k {
        frames.push(WireMessage::AdoptShared { seed });
        frames.push(WireMessage::Ack);
    }
    for (id, (req, payload)) in (1u64..).zip(exchanges) {
        frames.push(WireMessage::Request {
            id,
            req: req.clone(),
        });
        frames.push(WireMessage::Response {
            id,
            payload: payload.clone(),
        });
    }
    let mut cost = WireCost::default();
    let mut buf = Vec::new();
    for msg in &frames {
        buf.clear();
        let start = Instant::now();
        write_frame(&mut buf, msg).map_err(|e| format!("encoding a {} frame: {e}", msg.kind()))?;
        cost.encode += start.elapsed();
        cost.bytes += buf.len() as u64;
        let start = Instant::now();
        let back = read_frame(&mut buf.as_slice())
            .map_err(|e| format!("decoding a {} frame: {e}", msg.kind()))?;
        cost.decode += start.elapsed();
        if &back != msg {
            return Err(format!("a {} frame did not decode to itself", msg.kind()));
        }
    }
    cost.frames = frames.len() as u64;
    Ok(cost)
}
