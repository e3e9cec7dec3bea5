//! The request front-end: a hand-rolled submission queue, per-request
//! response tickets, and the lockstep rank loop that keeps every rank's
//! collective-call count aligned while requests arrive asynchronously.
//!
//! # Consensus
//!
//! The expert-parallel decode path is built from collectives, so every
//! rank must execute the same sequence of engine steps — but requests
//! arrive on one rank's queue at arbitrary times. Each loop iteration,
//! every rank all-reduces `[local_work, saw_stop]` (exact integer
//! arithmetic via [`collectives::allreduce_u64`]); the *summed* totals are
//! identical everywhere, so every rank takes the same branch: step when
//! anyone has work, exit when the queues are provably drained after
//! shutdown, or nap briefly and re-check. No rank ever steps alone.
//!
//! The shutdown edge has a subtle race: a request pushed just before the
//! stop flag flips could be missed by a rank that drained its queue
//! earlier in the same iteration. The loop therefore reads the stop flag
//! **before** draining and exits only when *every* rank saw the flag in
//! the same round (`saw_stop` sums to the world size) — by then each
//! rank's drain happened after every submission (submissions all complete
//! before the flag is set), so a zero work total really means empty.

use crate::engine::{Engine, EngineConfig};
use crate::request::{Request, Response, SubmitError};
use bagualu_comm::collectives;
use bagualu_comm::shm::World;
use bagualu_comm::Communicator;
use bagualu_parallel::DistTransformer;
use bagualu_tensor::par;
use bagualu_tensor::reservoir;
use bagualu_trace::{HostUsage, Trace, TraceCollector};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Duration;

/// Server sizing and instrumentation knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// World size (one engine replica per rank, experts sharded across
    /// them).
    pub nranks: usize,
    /// Per-rank engine configuration.
    pub engine: EngineConfig,
    /// Record `serve.*` spans and counters (one trace lane per rank).
    pub trace: bool,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            nranks: 1,
            engine: EngineConfig::default(),
            trace: false,
        }
    }
}

/// What [`run`] hands back: the driver closure's output plus the merged
/// trace when tracing was enabled.
#[derive(Debug)]
pub struct ServerReport<T> {
    /// The driver's return value.
    pub output: T,
    /// Merged per-rank trace (`serve.*`, `a2a_*`, `comm.*` …), if
    /// [`ServerOptions::trace`] was set.
    pub trace: Option<Trace>,
}

/// Where a request's answer goes.
type Responder = mpsc::Sender<Result<Response, SubmitError>>;

/// State shared between the client and the rank loops.
struct Shared {
    /// One submission queue per rank; requests are routed round-robin.
    queues: Mutex<Vec<VecDeque<Request>>>,
    /// Wakes idle rank loops when a request arrives or shutdown begins.
    cv: Condvar,
    /// Per-request response channels, keyed by request id. `None` once a
    /// rank thread has unwound: the world can no longer step, so pending
    /// and later tickets are dropped and their `wait` panics instead of
    /// blocking.
    responders: Mutex<Option<HashMap<u64, Responder>>>,
    next_id: AtomicU64,
    next_rank: AtomicUsize,
    /// Flipped once the driver returns; must be read *before* draining
    /// (see the module docs).
    stop: AtomicBool,
}

/// Handle the driver closure uses to submit requests. Cloneable across
/// driver-side threads by reference (`&Client` is `Sync`).
pub struct Client<'a> {
    shared: &'a Shared,
    nranks: usize,
}

impl Client<'_> {
    /// Submit a prompt for `max_new` greedily decoded tokens. Returns
    /// immediately with a [`Ticket`]; generation proceeds inside the
    /// continuous batch.
    pub fn submit(&self, prompt: Vec<usize>, max_new: usize) -> Ticket {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        if let Some(responders) = self.shared.responders.lock().unwrap().as_mut() {
            responders.insert(id, tx);
        }
        let rank = self.shared.next_rank.fetch_add(1, Ordering::Relaxed) % self.nranks;
        {
            let mut queues = self.shared.queues.lock().unwrap();
            queues[rank].push_back(Request::new(id, prompt, max_new));
        }
        self.shared.cv.notify_all();
        Ticket { rx }
    }
}

/// A pending response. Dropping it abandons the request's answer (the
/// request itself still runs to completion).
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, SubmitError>>,
}

impl Ticket {
    /// Block until the request completes (or was rejected at submit
    /// validation with a permanent [`SubmitError`]).
    pub fn wait(self) -> Result<Response, SubmitError> {
        self.rx
            .recv()
            .expect("serving ranks exited without answering this ticket")
    }
}

/// Stand up `nranks` engine replicas on scoped threads, run `driver`
/// against a [`Client`] on the calling thread, then shut the ranks down
/// cleanly (all queued work finishes first — shutdown is graceful).
///
/// `build_model` is called once per rank with the rank index and must
/// return replicas built from the *same seed* so dense weights agree and
/// expert shards partition one logical model.
pub fn run<B, F, T>(opts: ServerOptions, build_model: B, driver: F) -> ServerReport<T>
where
    B: Fn(usize) -> DistTransformer + Sync,
    F: FnOnce(&Client) -> T,
{
    assert!(opts.nranks > 0);
    let world = World::new(opts.nranks);
    let comms = world.comms();
    let collector = opts.trace.then(TraceCollector::new);
    let host = collector.as_ref().and_then(|_| HostUsage::now());
    let shared = Shared {
        queues: Mutex::new((0..opts.nranks).map(|_| VecDeque::new()).collect()),
        cv: Condvar::new(),
        responders: Mutex::new(Some(HashMap::new())),
        next_id: AtomicU64::new(0),
        next_rank: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };

    // Each rank thread owns its share of the cores as intra-op lanes, as in
    // `comm::harness`; the driver keeps the calling thread's width.
    let lanes = par::rank_width(opts.nranks);
    let output = std::thread::scope(|scope| {
        for comm in comms {
            let rank = comm.rank();
            let shared = &shared;
            let build_model = &build_model;
            let collector = collector.as_ref();
            scope.spawn(move || {
                let _lanes = par::scoped_width(lanes);
                let _unwinding = DropRespondersOnUnwind(shared);
                let _lane = collector.map(|c| c.install(rank));
                // The tensor reservoir is process-wide: rank 0's lane
                // carries what every thread did between here and shutdown.
                let speaks = rank == 0 && collector.is_some();
                if speaks {
                    reservoir::global().drain_counts();
                }
                let model = build_model(rank);
                let mut engine = Engine::new(model, opts.engine);
                rank_loop(&mut engine, &comm, shared, opts.nranks);
                if speaks {
                    reservoir::publish();
                }
            });
        }
        let client = Client {
            shared: &shared,
            nranks: opts.nranks,
        };
        // Set on drop so the ranks also wind down if `driver` panics —
        // otherwise `thread::scope` would wait on them forever.
        let _stop = StopGuard(&shared);
        driver(&client)
    });

    ServerReport {
        output,
        trace: collector.map(|c| {
            reservoir::record_run(&c, host);
            c.finish()
        }),
    }
}

/// One rank's serve loop; see the module docs for the consensus protocol.
fn rank_loop<C: Communicator>(engine: &mut Engine, comm: &C, shared: &Shared, nranks: usize) {
    loop {
        // Read the stop flag BEFORE draining: if we see it set, every
        // submission already happened, so the drain below sees them all.
        let saw_stop = shared.stop.load(Ordering::SeqCst);

        let drained: Vec<Request> = {
            let mut queues = shared.queues.lock().unwrap();
            queues[comm.rank()].drain(..).collect()
        };
        for req in drained {
            let id = req.id;
            if let Err(e) = engine.submit(req) {
                respond(shared, id, Err(e));
            }
        }

        let totals = collectives::allreduce_u64(comm, vec![engine.local_work(), saw_stop as u64]);
        if totals[0] > 0 {
            engine.step(comm);
            for resp in engine.take_finished() {
                respond(shared, resp.id, Ok(resp));
            }
            continue;
        }
        if totals[1] as usize == nranks {
            return;
        }
        // Idle and not yet shut down: nap until a submission (or the stop
        // flag) wakes us. Symmetric across ranks — everyone reached this
        // branch from the same totals, so no rank is stuck in a
        // collective.
        let queues = shared.queues.lock().unwrap();
        let _ = shared
            .cv
            .wait_timeout(queues, Duration::from_micros(500))
            .unwrap();
    }
}

/// Flips the stop flag (and wakes idle ranks) when dropped, even on an
/// unwinding driver.
struct StopGuard<'a>(&'a Shared);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        self.0.cv.notify_all();
    }
}

/// Drops every responder when its rank thread unwinds, so a driver waiting
/// on a ticket panics instead of blocking forever. A rank that panics
/// unwinds its peers too: its `ShmComm` marks it dead as it drops, and
/// their next collective on it ends.
struct DropRespondersOnUnwind<'a>(&'a Shared);

impl Drop for DropRespondersOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            *self.0.responders.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }
}

/// Deliver a result to the waiting ticket, if it is still around.
fn respond(shared: &Shared, id: u64, result: Result<Response, SubmitError>) {
    let tx = shared
        .responders
        .lock()
        .unwrap()
        .as_mut()
        .and_then(|r| r.remove(&id));
    if let Some(tx) = tx {
        let _ = tx.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_model::config::ModelConfig;
    use bagualu_parallel::A2aKind;
    use bagualu_trace::names;

    fn opts(nranks: usize, trace: bool) -> ServerOptions {
        ServerOptions {
            nranks,
            engine: EngineConfig {
                max_batch: 4,
                kv_blocks: 32,
                block_tokens: 4,
            },
            trace,
        }
    }

    fn build(nranks: usize) -> impl Fn(usize) -> DistTransformer + Sync {
        move |rank| DistTransformer::new(ModelConfig::tiny(), 73, rank, nranks, A2aKind::Pairwise)
    }

    #[test]
    fn serves_concurrent_requests() {
        let report = run(opts(2, true), build(2), |client| {
            let tickets: Vec<Ticket> = (0..6)
                .map(|i| client.submit(vec![1 + i % 5, 9, 2], 4))
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("valid request"))
                .collect::<Vec<Response>>()
        });
        assert_eq!(report.output.len(), 6);
        for r in &report.output {
            assert_eq!(r.prompt_len, 3);
            assert_eq!(r.generated().len(), 4);
        }
        let trace = report.trace.expect("tracing was on");
        assert_eq!(trace.counter_total(names::SERVE_COMPLETED), 6);
        assert!(trace.counter_total(names::SERVE_DECODE_TOKENS) > 0);
    }

    #[test]
    fn identical_prompts_get_identical_answers_regardless_of_batching() {
        // The same prompt submitted alone and amid a crowd must decode to
        // the same tokens — continuous batching is invisible.
        let solo = run(opts(1, false), build(1), |client| {
            client.submit(vec![4, 4, 8], 5).wait().unwrap().tokens
        });
        let crowded = run(opts(1, false), build(1), |client| {
            let noise: Vec<Ticket> = (0..3).map(|i| client.submit(vec![2 + i], 7)).collect();
            let t = client.submit(vec![4, 4, 8], 5);
            let tokens = t.wait().unwrap().tokens;
            for n in noise {
                n.wait().unwrap();
            }
            tokens
        });
        assert_eq!(solo.output, crowded.output);
    }

    /// Serving ranks split the cores like training ranks do; the driver
    /// closure stays on the calling thread at the calling thread's width.
    #[test]
    fn rank_threads_get_their_share_of_the_cores() {
        let cores = par::available_cores();
        for nranks in [1, 2] {
            let seen = Mutex::new(Vec::new());
            let building = build(nranks);
            let report = run(
                opts(nranks, false),
                |rank| {
                    seen.lock().unwrap().push(par::current_num_threads());
                    building(rank)
                },
                |_| par::current_num_threads(),
            );
            assert_eq!(report.output, cores, "driver keeps the caller's width");
            assert_eq!(
                seen.into_inner().unwrap(),
                vec![(cores / nranks).max(1); nranks]
            );
            assert_eq!(par::current_num_threads(), cores);
        }
    }

    #[test]
    #[should_panic(expected = "serving ranks exited without answering this ticket")]
    fn a_world_that_dies_building_fails_the_ticket_instead_of_hanging() {
        run(
            opts(2, false),
            |_| -> DistTransformer { panic!("cannot build this model") },
            |client| client.submit(vec![1, 2], 4).wait(),
        );
    }

    #[test]
    fn permanent_rejects_surface_through_the_ticket() {
        let report = run(opts(1, false), build(1), |client| {
            client.submit(vec![], 4).wait()
        });
        assert_eq!(report.output, Err(SubmitError::EmptyPrompt));

        // A token outside the vocabulary used to kill a rank thread in
        // prefill and leave every ticket waiting; the ranks keep serving.
        let vocab = ModelConfig::tiny().vocab;
        let report = run(opts(2, false), build(2), |client| {
            let bad = client.submit(vec![1, vocab], 4).wait();
            let good = client.submit(vec![1, 2], 4).wait();
            (bad, good.map(|r| r.generated().len()))
        });
        assert_eq!(
            report.output,
            (
                Err(SubmitError::TokenOutOfVocab {
                    token: vocab,
                    vocab
                }),
                Ok(4)
            )
        );
    }
}
