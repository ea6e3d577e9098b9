use super::{RunError, Transport, TransportError};
use crate::message::Payload;
use crate::player::PlayerState;
use crate::rand::SharedRandomness;
use crate::request::{Envelope, PlayerRequest};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;
use triad_graph::Edge;

/// Default per-response receive deadline. Generous — local player
/// threads answer in microseconds — but bounded, so a wedged player
/// surfaces as [`RunError::Timeout`] instead of blocking the
/// coordinator forever.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// One OS thread per player, communicating with the coordinator over
/// `std::sync::mpsc` channels — a genuinely concurrent execution of the same
/// protocols.
///
/// Because all protocol randomness is derived from the shared string and
/// the coordinator serializes request/response pairs, the transcript is
/// bit-for-bit identical to [`super::LocalTransport`]'s.
///
/// # Example
///
/// Spawning player threads and driving them through a
/// [`Runtime`](crate::runtime::Runtime); the transport joins its threads
/// on drop:
///
/// ```
/// use triad_comm::{
///     CostModel, Payload, PlayerRequest, Runtime, SharedRandomness, ThreadedTransport,
/// };
/// use triad_graph::{Edge, VertexId};
///
/// let e = |a, b| Edge::new(VertexId(a), VertexId(b));
/// let shares = vec![vec![e(0, 1)], vec![e(1, 2)]];
/// let shared = SharedRandomness::new(7);
/// let transport = ThreadedTransport::spawn(3, &shares, shared);
/// let mut rt = Runtime::new(Box::new(transport), 3, shared, CostModel::Coordinator);
/// assert_eq!(rt.request(0, PlayerRequest::HasEdge(e(0, 1))), Payload::Bit(true));
/// ```
#[derive(Debug)]
pub struct ThreadedTransport {
    senders: Vec<Sender<Envelope>>,
    receivers: Vec<Receiver<Payload<'static>>>,
    handles: Vec<JoinHandle<()>>,
    timeout: Duration,
}

impl ThreadedTransport {
    /// Spawns `shares.len()` player threads.
    pub fn spawn(n: usize, shares: &[Vec<Edge>], shared: SharedRandomness) -> Self {
        let mut senders = Vec::with_capacity(shares.len());
        let mut receivers = Vec::with_capacity(shares.len());
        let mut handles = Vec::with_capacity(shares.len());
        for (j, share) in shares.iter().enumerate() {
            let (req_tx, req_rx) = channel::<Envelope>();
            let (resp_tx, resp_rx) = channel::<Payload<'static>>();
            let state = PlayerState::new(j, n, share);
            let handle = std::thread::Builder::new()
                .name(format!("triad-player-{j}"))
                .spawn(move || {
                    while let Ok(envelope) = req_rx.recv() {
                        match envelope {
                            Envelope::Request(req) => {
                                let resp = state.handle(&req, &shared);
                                if resp_tx.send(resp).is_err() {
                                    break;
                                }
                            }
                            Envelope::Halt => break,
                        }
                    }
                })
                .expect("failed to spawn player thread");
            senders.push(req_tx);
            receivers.push(resp_rx);
            handles.push(handle);
        }
        ThreadedTransport {
            senders,
            receivers,
            handles,
            timeout: DEFAULT_RECV_TIMEOUT,
        }
    }

    /// Replaces the per-response receive deadline (builder-style).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The per-response receive deadline in force.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }
}

impl Transport for ThreadedTransport {
    fn k(&self) -> usize {
        self.senders.len()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        // A player whose thread panicked (or already halted) has dropped
        // both channel ends: either the send or the recv fails, and the
        // coordinator gets an error naming the player instead of a
        // deadlock or an opaque unwrap across threads. A wedged (but
        // alive) player trips the receive deadline instead.
        self.senders[player]
            .send(Envelope::Request(req.clone()))
            .map_err(|_| RunError::Transport(TransportError { player }))?;
        self.receivers[player]
            .recv_timeout(self.timeout)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => RunError::Timeout { player },
                RecvTimeoutError::Disconnected => RunError::Transport(TransportError { player }),
            })
    }
}

impl Drop for ThreadedTransport {
    fn drop(&mut self) {
        for tx in &self.senders {
            // Best effort: a thread that already exited is fine.
            let _ = tx.send(Envelope::Halt);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_graph::VertexId;

    #[test]
    fn threaded_roundtrip() {
        let e01 = Edge::new(VertexId(0), VertexId(1));
        let shared = SharedRandomness::new(1);
        let mut t = ThreadedTransport::spawn(3, &[vec![e01], vec![]], shared);
        assert_eq!(t.k(), 2);
        assert_eq!(
            t.deliver(0, &PlayerRequest::HasEdge(e01)),
            Payload::Bit(true)
        );
        assert_eq!(
            t.deliver(1, &PlayerRequest::HasEdge(e01)),
            Payload::Bit(false)
        );
        assert_eq!(
            t.deliver(0, &PlayerRequest::LocalEdgeCount),
            Payload::Count(1)
        );
    }

    #[test]
    fn clean_shutdown_on_drop() {
        let shared = SharedRandomness::new(2);
        let t = ThreadedTransport::spawn(2, &[vec![], vec![]], shared);
        drop(t); // must not hang or panic
    }

    #[test]
    fn panicking_player_surfaces_error_not_deadlock() {
        let shared = SharedRandomness::new(3);
        let mut t = ThreadedTransport::spawn(2, &[vec![], vec![]], shared);
        // Vertex 99 is out of range for n = 2: the player thread panics
        // inside `PlayerState::handle` and drops both channel ends.
        let err = t
            .try_deliver(0, &PlayerRequest::LocalDegree { v: VertexId(99) })
            .unwrap_err();
        assert_eq!(err, RunError::Transport(TransportError { player: 0 }));
        assert!(err.to_string().contains("player 0"), "{err}");
        // The dead player keeps failing cleanly instead of deadlocking...
        assert!(t.try_deliver(0, &PlayerRequest::LocalEdgeCount).is_err());
        // ...while the surviving player still answers.
        assert_eq!(
            t.try_deliver(1, &PlayerRequest::LocalEdgeCount).unwrap(),
            Payload::Count(0)
        );
        // Drop joins the dead thread without propagating its panic.
        drop(t);
    }

    #[test]
    fn deliver_panics_with_player_id_after_thread_death() {
        let shared = SharedRandomness::new(5);
        let mut t = ThreadedTransport::spawn(2, &[vec![], vec![]], shared);
        let _ = t.try_deliver(1, &PlayerRequest::LocalDegree { v: VertexId(42) });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.deliver(1, &PlayerRequest::LocalEdgeCount)
        }));
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("player 1"), "{msg}");
    }

    #[test]
    fn wedged_player_trips_receive_deadline() {
        // Hand-assemble a transport whose "player" receives requests but
        // never answers: the deadline must fire as a Timeout, not hang.
        let (req_tx, req_rx) = channel::<Envelope>();
        let (_resp_tx, resp_rx) = channel::<Payload<'static>>();
        let handle = std::thread::spawn(move || {
            // Keep the request channel open until Halt so the send
            // succeeds and the failure is unambiguously the deadline.
            while let Ok(envelope) = req_rx.recv() {
                if matches!(envelope, Envelope::Halt) {
                    break;
                }
            }
        });
        let mut t = ThreadedTransport {
            senders: vec![req_tx],
            receivers: vec![resp_rx],
            handles: vec![handle],
            timeout: Duration::from_millis(10),
        };
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert_eq!(err, RunError::Timeout { player: 0 });
        drop(t); // Halt + join must still shut down cleanly.
    }

    #[test]
    fn drop_with_requests_in_flight_shuts_down() {
        let e01 = Edge::new(VertexId(0), VertexId(1));
        let shared = SharedRandomness::new(4);
        let t = ThreadedTransport::spawn(2, &[vec![e01], vec![]], shared);
        // Queue a burst of requests without reading any responses; drop
        // must drain/halt both threads without hanging on the replies.
        for _ in 0..16 {
            t.senders[0]
                .send(Envelope::Request(PlayerRequest::LocalEdgeCount))
                .unwrap();
        }
        drop(t);
    }
}
