//! The request front-end: one shared submission queue, per-request
//! response tickets, and the lockstep rank loop that keeps every rank's
//! collective-call count aligned while requests arrive asynchronously.
//!
//! # Consensus
//!
//! The expert-parallel decode path is built from collectives, so every
//! rank must execute the same sequence of engine steps — but requests
//! arrive at arbitrary times. [`Client::submit`] numbers each request and
//! appends it to one shared FIFO under the queue lock, so the ids below
//! the count appended so far (the *watermark*) are exactly the requests
//! in the system. Each loop iteration every rank all-reduces
//! `[local_work, stop, watermark, room_0 … room_{R−1}]` (exact integer
//! arithmetic via [`collectives::allreduce_u64`]): every rank adds its
//! queued plus in-flight requests to `local_work` and writes its free
//! batch slots into its own `room` slot; rank 0 alone fills in the stop
//! flag and the watermark. The summed vector is identical everywhere, so
//! every rank runs the same pure `assign` over it — the unassigned ids
//! below the watermark, in FIFO order, each to the rank with the most
//! room — and takes only its own ids out of the queue. Then every rank
//! takes the same branch: step when anyone has work or was just handed
//! some, exit when the queue is provably drained after shutdown, or nap
//! briefly and re-check. No rank ever steps alone, and a burst lands
//! balanced across the ranks in the step it is agreed, so no rank waits
//! in an all-to-all through another's second prefill.
//!
//! The shutdown edge has a subtle race: a request appended just before
//! the stop flag flips must not be missed. Every submission finishes
//! before the flag flips, and rank 0 reads the flag **before** it reads
//! the watermark, so a round that agrees on `stop` also agrees on a
//! watermark that counts every request. The loop exits only in such a
//! round with zero work and nothing assigned; zero work means every room
//! is a whole batch, so nothing assigned means nothing below the
//! watermark is left unassigned, and every assigned request has finished.

use crate::engine::{Engine, EngineConfig};
use crate::request::{Request, Response, SubmitError};
use bagualu_comm::collectives;
use bagualu_comm::shm::World;
use bagualu_comm::Communicator;
use bagualu_parallel::DistTransformer;
use bagualu_tensor::par;
use bagualu_tensor::reservoir;
use bagualu_trace::{HostUsage, Trace, TraceCollector};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// The shared submission FIFO.
#[derive(Default)]
struct Queue {
    /// Requests appended so far: the next request's id, and the watermark
    /// rank 0 offers to the consensus.
    appended: u64,
    /// Requests no rank has taken yet, keyed (so ordered) by id.
    waiting: BTreeMap<u64, Request>,
}

/// State shared between the client and the rank loops.
struct Shared {
    queue: Mutex<Queue>,
    /// Wakes idle rank loops when a request arrives or shutdown begins.
    cv: Condvar,
    /// Per-request response channels, keyed by request id. `None` once a
    /// rank thread has unwound: the world can no longer step, so pending
    /// and later tickets are dropped and their `wait` panics instead of
    /// blocking.
    responders: Mutex<Option<HashMap<u64, Responder>>>,
    /// Flipped once the driver returns; rank 0 reads it *before* the
    /// watermark (see the module docs).
    stop: AtomicBool,
}

/// Handle the driver closure uses to submit requests. Cloneable across
/// driver-side threads by reference (`&Client` is `Sync`).
pub struct Client<'a> {
    shared: &'a Shared,
}

impl Client<'_> {
    /// Submit a prompt for `max_new` greedily decoded tokens. Returns
    /// immediately with a [`Ticket`]; generation proceeds inside the
    /// continuous batch.
    pub fn submit(&self, prompt: Vec<usize>, max_new: usize) -> Ticket {
        let (tx, rx) = mpsc::channel();
        {
            // Ids are taken and appended under one lock, so every id below
            // the watermark is in the queue or already assigned.
            let mut queue = self.shared.queue.lock().unwrap();
            let id = queue.appended;
            queue.appended += 1;
            // Registered before the request is visible: a rank may answer it
            // as soon as the lock drops.
            if let Some(responders) = self.shared.responders.lock().unwrap().as_mut() {
                responders.insert(id, tx);
            }
            queue.waiting.insert(id, Request::new(id, prompt, max_new));
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
        queue: Mutex::new(Queue::default()),
        cv: Condvar::new(),
        responders: Mutex::new(Some(HashMap::new())),
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
                rank_loop(&mut engine, &comm, shared, opts.engine.max_batch);
                if speaks {
                    reservoir::publish();
                }
            });
        }
        let client = Client { shared: &shared };
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

/// Entries of the consensus vector ahead of the per-rank room slots:
/// `[local_work, stop, watermark]`.
const HEAD: usize = 3;

/// One rank's serve loop; see the module docs for the consensus protocol.
fn rank_loop<C: Communicator>(engine: &mut Engine, comm: &C, shared: &Shared, max_batch: usize) {
    let rank = comm.rank();
    // Every id below this has been assigned to a rank; the same on every
    // rank, since each computes it from the same agreed vectors.
    let mut assigned = 0u64;
    loop {
        let work = engine.local_work();
        let mut offer = vec![0; HEAD + comm.size()];
        offer[0] = work;
        if rank == 0 {
            // The stop flag BEFORE the watermark: if it is set, every
            // submission is already appended and counted.
            offer[1] = shared.stop.load(Ordering::SeqCst) as u64;
            offer[2] = shared.queue.lock().unwrap().appended;
        }
        offer[HEAD + rank] = (max_batch as u64).saturating_sub(work);
        let agreed = collectives::allreduce_u64(comm, offer);

        let owners = assign((agreed[2] - assigned) as usize, &agreed[HEAD..]);
        let mine: Vec<Request> = {
            let mut queue = shared.queue.lock().unwrap();
            (assigned..)
                .zip(&owners)
                .filter(|&(_, &owner)| owner == rank)
                .map(|(id, _)| {
                    queue
                        .waiting
                        .remove(&id)
                        .expect("ids below the watermark are queued")
                })
                .collect()
        };
        assigned += owners.len() as u64;
        for req in mine {
            let id = req.id;
            if let Err(e) = engine.submit(req) {
                respond(shared, id, Err(e));
            }
        }

        if agreed[0] > 0 || !owners.is_empty() {
            engine.step(comm);
            for resp in engine.take_finished() {
                respond(shared, resp.id, Ok(resp));
            }
            continue;
        }
        if agreed[1] == 1 {
            return;
        }
        // Idle and not yet shut down: nap until a submission (or the stop
        // flag) wakes us. Symmetric across ranks — everyone reached this
        // branch from the same totals, so no rank is stuck in a
        // collective.
        let queue = shared.queue.lock().unwrap();
        let _ = shared
            .cv
            .wait_timeout(queue, Duration::from_micros(500))
            .unwrap();
    }
}

/// The owner of each of the `pending` oldest unassigned requests, in FIFO
/// order: the rank with the most `room` left (ties to the lower rank). The
/// walk stops at the first request no rank has room for, so it hands out
/// `min(pending, Σ room)` requests. Pure: every rank computes the same
/// owners from the same agreed vector.
fn assign(pending: usize, room: &[u64]) -> Vec<usize> {
    let mut room = room.to_vec();
    let mut owners = Vec::new();
    while owners.len() < pending {
        // `max_by_key` keeps the last of equal keys: reversed, the lowest rank.
        let (rank, free) = room
            .iter()
            .copied()
            .enumerate()
            .rev()
            .max_by_key(|&(_, free)| free)
            .expect("a world has at least one rank");
        if free == 0 {
            break;
        }
        room[rank] -= 1;
        owners.push(rank);
    }
    owners
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
    use bagualu_trace::{names, EventKind};
    use proptest::prelude::*;

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

    /// Shutdown is graceful: a driver that returns without waiting on its
    /// tickets still has every request it submitted served, on an even and
    /// an odd world, with more requests than the ranks have room for.
    #[test]
    fn requests_submitted_before_shutdown_are_all_served() {
        for nranks in [2, 3] {
            let report = run(opts(nranks, true), build(nranks), |client| {
                for i in 0..11 {
                    drop(client.submit(vec![1 + i % 7, 4], 2));
                }
            });
            let trace = report.trace.expect("tracing was on");
            assert_eq!(
                trace.counter_total(names::SERVE_COMPLETED),
                11,
                "{nranks} ranks"
            );
        }
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

    #[test]
    fn assignment_hands_out_the_oldest_requests_in_fifo_order() {
        // The most room first, ties to the lower rank; the i-th owner is
        // the owner of the i-th oldest unassigned request.
        assert_eq!(assign(5, &[2, 1]), vec![0, 0, 1]);
        assert_eq!(assign(3, &[1, 3, 1]), vec![1, 1, 0]);
        assert_eq!(assign(2, &[0, 2]), vec![1, 1]);
    }

    #[test]
    fn no_rank_is_handed_more_than_its_room() {
        let owners = assign(10, &[3, 0, 2]);
        assert_eq!(owners, vec![0, 0, 2, 0, 2]);
        for (rank, room) in [3, 0, 2].into_iter().enumerate() {
            assert_eq!(owners.iter().filter(|&&o| o == rank).count(), room);
        }
    }

    #[test]
    fn assignment_stops_at_the_first_request_without_room() {
        assert_eq!(assign(4, &[0, 0]), Vec::<usize>::new());
        assert_eq!(assign(4, &[1, 0]), vec![0]);
        assert_eq!(assign(0, &[4, 4]), Vec::<usize>::new());
    }

    #[test]
    fn equal_rooms_split_a_burst_within_one_request() {
        assert_eq!(assign(7, &[4, 4, 4]), vec![0, 1, 2, 0, 1, 2, 0]);
        for pending in 0..=16 {
            let owners = assign(pending, &[8, 8]);
            let zeros = owners.iter().filter(|&&o| o == 0).count();
            assert!(
                zeros.abs_diff(owners.len() - zeros) <= 1,
                "{pending}: {owners:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn assignment_places_as_many_as_there_is_room_for(
            pending in 0usize..40,
            room in proptest::collection::vec(0u64..10, 1..6),
        ) {
            let owners = assign(pending, &room);
            prop_assert_eq!(owners.len() as u64, (pending as u64).min(room.iter().sum()));
            for (rank, &free) in room.iter().enumerate() {
                prop_assert!(owners.iter().filter(|&&o| o == rank).count() as u64 <= free);
            }
        }
    }

    /// One walk per engine step: on two ranks, every `serve.decode_step`
    /// span — with prompt rows in it or not — holds exactly one all-to-all
    /// dispatch per MoE block.
    #[test]
    fn every_engine_step_dispatches_once_per_moe_block() {
        let report = run(opts(2, true), build(2), |client| {
            let tickets: Vec<Ticket> = (0..7)
                .map(|i| client.submit(vec![1 + i % 5, 9, 2][..1 + i % 3].to_vec(), 1 + i % 4))
                .collect();
            for t in tickets {
                t.wait().expect("valid request");
            }
        });
        let trace = report.trace.expect("tracing was on");
        assert!(trace.span_count(names::SERVE_PREFILL) > 0);
        let moe_blocks = ModelConfig::tiny().n_moe_blocks();
        for lane in &trace.ranks {
            let (mut dispatches, mut steps) = (None, 0);
            for e in &lane.events {
                match e.kind {
                    EventKind::Enter if e.name == names::SERVE_DECODE_STEP => dispatches = Some(0),
                    EventKind::Enter if e.name == names::A2A_DISPATCH => {
                        *dispatches
                            .as_mut()
                            .expect("a dispatch outside an engine step") += 1
                    }
                    EventKind::Exit if e.name == names::SERVE_DECODE_STEP => {
                        assert_eq!(dispatches.take(), Some(moe_blocks), "lane {}", lane.lane);
                        steps += 1;
                    }
                    _ => {}
                }
            }
            assert!(steps > 0, "lane {} never stepped", lane.lane);
        }
    }
}
