//! Fault tolerance: a run killed after checkpointing must resume in a
//! fresh set of rank "processes" and keep training from where it left off.
//!
//! At 96,000 nodes the mean time between node failures is shorter than a
//! training run; checkpoint-and-restart is the system's availability story.
//! Simulated here: phase 1 trains and checkpoints, the world is torn down
//! (threads joined, all state dropped except the checkpoint files), and
//! phase 2 boots brand-new ranks that restore and continue.

use bagualu::checkpoint::{load_params_sharded, save_params_sharded};
use bagualu::comm::harness::run_ranks_map;
use bagualu::comm::shm::Communicator;
use bagualu::comm::WireDType;
use bagualu::data::{SyntheticLM, TokenDistribution};
use bagualu::model::config::ModelConfig;
use bagualu::model::loss::cross_entropy;
use bagualu::model::param::HasParams;
use bagualu::optim::adam::{Adam, AdamConfig};
use bagualu::parallel::model_dist::DistTransformer;
use bagualu::parallel::moe_dist::A2aKind;
use bagualu::parallel::sync::sync_grads_wire;
use std::path::Path;

const NRANKS: usize = 2;
const BATCH: usize = 4;
const SEQ: usize = 8;

fn train_phase(dir: &Path, restore: bool, start_step: usize, steps: usize) -> Vec<f32> {
    let model_cfg = ModelConfig {
        n_experts: 4,
        ..ModelConfig::tiny()
    };
    let task = SyntheticLM::new(model_cfg.vocab, TokenDistribution::Uniform, 55);
    let (task_ref, dir_ref) = (&task, dir);
    let mut curves = run_ranks_map(NRANKS, move |comm| {
        let rank = comm.rank();
        let mut model = DistTransformer::new(model_cfg, 404, rank, NRANKS, A2aKind::Pairwise);
        if restore {
            load_params_sharded(dir_ref.join(format!("rank{rank}")), &mut model, 1)
                .expect("restore must succeed");
        }
        let mut opt = Adam::new(AdamConfig {
            lr: 1e-2,
            ..Default::default()
        });
        let mut losses = Vec::with_capacity(steps);
        for step in start_step..start_step + steps {
            let (tokens, targets) = task_ref.batch(BATCH, SEQ, rank, step);
            let logits = model.forward(&tokens, BATCH, SEQ, &comm);
            let (loss, dlogits) = cross_entropy(&logits, &targets);
            model.backward(&dlogits, &comm);
            sync_grads_wire(&mut model, &comm, WireDType::F32);
            opt.step(&mut model);
            model.zero_grad();
            losses.push(loss);
        }
        save_params_sharded(dir_ref.join(format!("rank{rank}")), &mut model, 1).unwrap();
        losses
    });
    curves.swap_remove(0)
}

#[test]
fn checkpoint_restart_continues_training() {
    let dir = std::env::temp_dir().join(format!("bagualu-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Phase 1: fresh training.
    let phase1 = train_phase(&dir, false, 0, 25);
    let initial = phase1[0];
    let before_crash = *phase1.last().unwrap();
    assert!(
        before_crash < initial * 0.5,
        "phase 1 must learn: {initial} -> {before_crash}"
    );

    // "Crash": everything is gone except the checkpoint files.

    // Phase 2: new ranks restore and continue.
    let phase2 = train_phase(&dir, true, 25, 25);
    let resumed = phase2[0];
    assert!(
        resumed < initial * 0.5,
        "resumed run lost the learned state: {resumed} vs initial {initial}"
    );
    // Resumption is close to where we crashed (fresh Adam state and a new
    // batch allow some slack, but not a return to random-init loss).
    assert!(
        resumed < before_crash + 1.0,
        "loss jumped after restore: {before_crash} -> {resumed}"
    );
    // And training keeps improving.
    let final_loss = *phase2.last().unwrap();
    assert!(
        final_loss <= resumed * 1.1,
        "no further progress: {resumed} -> {final_loss}"
    );

    // Control: a run that does NOT restore starts from scratch.
    let cold = train_phase(&dir, false, 25, 1);
    assert!(
        cold[0] > resumed * 2.0,
        "cold start should be much worse than resume: {} vs {resumed}",
        cold[0]
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The automated version of the scenario above: `Trainer::run_ft` detects
/// injected crashes via the failure-aware collectives, restores the last
/// manifest checkpoint, and resumes — twice in one run.
#[test]
fn trainer_recovers_from_two_crashes_automatically() {
    use bagualu::comm::FaultPlan;
    use bagualu::trainer::{FtConfig, TrainConfig, Trainer};

    let dir = std::env::temp_dir().join(format!("bagualu-ft-auto-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = TrainConfig {
        steps: 10,
        ..TrainConfig::default()
    };
    // Checkpoints at steps 3, 6, 9; rank 0 dies at step 3, rank 1 at 7.
    let ft = FtConfig {
        plan: FaultPlan::none().crash(0, 3).crash(1, 7),
        ckpt_every: 3,
        max_restarts: 3,
        heartbeat_ms: 300,
        ..FtConfig::new(&dir)
    };
    let r = Trainer::new(cfg).run_ft(&ft);
    assert_eq!(r.restarts, 2);
    // Crash at 3 lands exactly on the step-3 checkpoint (0 lost); crash at
    // 7 rolls back to step 6 (1 step lost).
    assert_eq!(r.lost_steps, 1);
    assert_eq!(r.loss_curve.len(), 10);
    assert!(r.loss_curve.iter().all(|l| l.is_finite()));
    assert!(
        r.final_loss() < r.loss_curve[0],
        "recovered run must still learn: {} -> {}",
        r.loss_curve[0],
        r.final_loss()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dropped message inside a failure-aware collective surfaces as a
/// timeout on every rank instead of a deadlock; the deadline harness
/// guards the whole scenario in case detection itself regresses.
#[test]
fn dropped_message_times_out_under_watchdog() {
    use bagualu::comm::shm::World;
    use bagualu::comm::{allreduce_ft, FaultPlan, FaultRuntime, RankOutcome, ReduceOp};
    use std::sync::mpsc;
    use std::time::Duration;

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let faults = std::sync::Arc::new(FaultRuntime::new(FaultPlan::none().drop_nth(1, 0), 3));
        let world = World::new_with_faults(3, faults);
        let outcomes = bagualu::comm::run_ranks_ft(&world, |c| {
            allreduce_ft(
                &c,
                vec![c.rank() as f32],
                ReduceOp::Sum,
                Duration::from_millis(200),
            )
        });
        tx.send(outcomes).unwrap();
    });
    let outcomes = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("deadlock: dropped message was never detected");
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, RankOutcome::TimedOut(_))),
        "someone must observe the drop"
    );
}

/// A `DelayNth` message held past its receiver's patience is still
/// delivered exactly once: the retried `recv_timeout` that eventually gets
/// it must not leave a duplicate behind, and the delay is one event, spent
/// by the send, not once per receive attempt.
#[test]
fn delayed_message_is_delivered_once_and_counted_once() {
    use bagualu::comm::shm::World;
    use bagualu::comm::{run_ranks_ft, CommError, FaultPlan, FaultRuntime, FaultSpec, RankOutcome};
    use std::sync::Arc;
    use std::time::Duration;

    let faults = Arc::new(FaultRuntime::new(FaultPlan::none().delay_nth(1, 0, 120), 2));
    let world = World::new_with_faults(2, Arc::clone(&faults));
    let outcomes = run_ranks_ft(&world, |c| {
        if c.rank() == 1 {
            // The sender stalls for the full delay (a stalled link blocks
            // the producer), then the message goes out normally.
            c.send(0, 5, vec![7.0f32, 8.0].into());
            Ok(Vec::new())
        } else {
            // First attempt: shorter than the injected delay — times out.
            match c.recv_timeout(1, 5, Duration::from_millis(20)) {
                Err(CommError::Timeout { .. }) => {}
                other => panic!("expected a timeout racing the delay, got {other:?}"),
            }
            // Retry with patience: the delayed message arrives, once.
            let got = c.recv_timeout(1, 5, Duration::from_secs(10))?.into_f32();
            // And never twice.
            match c.recv_timeout(1, 5, Duration::from_millis(80)) {
                Err(CommError::Timeout { .. }) => {}
                other => panic!("delayed message delivered twice: {other:?}"),
            }
            Ok(got)
        }
    });
    match &outcomes[0] {
        RankOutcome::Ok(v) => assert_eq!(v, &vec![7.0f32, 8.0], "payload intact"),
        other => panic!("receiver failed: {other:?}"),
    }
    assert!(outcomes[1].is_ok(), "sender failed");
    let delay = FaultSpec::DelayNth {
        from: 1,
        nth: 0,
        millis: 120,
    };
    assert!(!faults.fire(delay), "one delay event, spent by the send");
}

/// A `DelayNth` stall inside the *overlapped* gradient sync must neither
/// trip the deadlock watchdog (the deadline is far beyond the delay) nor
/// change the result: the bucketed rings drain late but completely, the
/// gradients match the blocking sync, and the delay fires once.
#[test]
fn overlapped_sync_absorbs_a_delayed_message_under_the_watchdog() {
    use bagualu::comm::shm::World;
    use bagualu::comm::{run_ranks_ft, FaultPlan, FaultRuntime, FaultSpec};
    use bagualu::parallel::sync::backward_and_sync_overlapped_wire;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    // The manual form of `run_ranks_deadline` (that helper builds its own
    // fault-free world; this scenario needs an armed one): the channel
    // timeout is the watchdog, and it only fires if the delayed ring
    // message wedges the sync.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        // Delay an early backward-phase message from rank 1 by 200 ms —
        // several ring steps' worth of stall in the middle of the sync.
        let faults = Arc::new(FaultRuntime::new(FaultPlan::none().delay_nth(1, 6, 200), 2));
        let world = World::new_with_faults(2, Arc::clone(&faults));
        let outcomes = run_ranks_ft(&world, |c| {
            let model_cfg = ModelConfig {
                n_experts: 4,
                ..ModelConfig::tiny()
            };
            let task = SyntheticLM::new(model_cfg.vocab, TokenDistribution::Uniform, 77);
            let run_one = |overlapped: bool| {
                let mut m = DistTransformer::new(model_cfg, 505, c.rank(), 2, A2aKind::Pairwise);
                let (tokens, targets) = task.batch(BATCH, SEQ, c.rank(), 0);
                let logits = m.forward(&tokens, BATCH, SEQ, &c);
                let (_, dlogits) = cross_entropy(&logits, &targets);
                if overlapped {
                    backward_and_sync_overlapped_wire(
                        &mut m,
                        &dlogits,
                        &c,
                        1 << 10,
                        WireDType::F32,
                    );
                } else {
                    m.backward(&dlogits, &c);
                    sync_grads_wire(&mut m, &c, WireDType::F32);
                }
                let mut dense = Vec::new();
                m.visit_dense_params(&mut |p| dense.extend_from_slice(p.grad.as_slice()));
                dense
            };
            let blocking = run_one(false);
            let overlapped = run_one(true);
            Ok((blocking, overlapped))
        });
        let delay = FaultSpec::DelayNth {
            from: 1,
            nth: 6,
            millis: 200,
        };
        let spent = !faults.fire(delay);
        let _ = tx.send((outcomes, spent));
    });
    let (outcomes, delay_spent) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("watchdog: overlapped sync wedged on a delayed message");
    for (rank, o) in outcomes.into_iter().enumerate() {
        let (blocking, overlapped) = o.ok().expect("rank must complete");
        assert_eq!(blocking.len(), overlapped.len());
        for (i, (a, b)) in blocking.iter().zip(&overlapped).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * (1.0 + a.abs().max(b.abs())),
                "dense grad[{i}] diverged on rank {rank}: {a} vs {b}"
            );
        }
    }
    assert!(delay_spent, "the delay fired");
}

/// A shard whose stage two never reaches the disk (its node lost the page
/// cache): the step is never named in `MANIFEST`, the rank crashes when it
/// joins its writer, and the restore uses the previous committed step.
#[test]
fn a_lost_stage_two_restores_the_previous_committed_step() {
    use bagualu::comm::FaultPlan;
    use bagualu::trainer::{FtConfig, TrainConfig, Trainer};

    let cfg = TrainConfig {
        steps: 10,
        ..TrainConfig::default()
    };
    // Checkpoints at steps 4 and 8; rank 1's step-8 shard is lost. Its
    // writer is joined at the heartbeat before step 9, where rank 1 crashes.
    let ft = |dir: &Path, max_restarts| FtConfig {
        plan: FaultPlan::none().lose_shard(1, 8),
        ckpt_every: 4,
        max_restarts,
        heartbeat_ms: 300,
        ..FtConfig::new(dir)
    };
    let tmp_dir = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("bagualu-ft-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let staging_files = |dir: &Path| {
        std::fs::read_dir(dir)
            .unwrap()
            .flat_map(|step| {
                std::fs::read_dir(step.unwrap().path())
                    .into_iter()
                    .flatten()
            })
            .filter(|f| f.as_ref().unwrap().path().extension() == Some("tmp".as_ref()))
            .count()
    };

    // With no restart allowed, the disk is left as the failure left it: rank
    // 0's step-8 shard is durable, rank 1's never took its name, and the
    // manifest still names step 4.
    let dir = tmp_dir("lost-stage-two-stop");
    let stopped = std::panic::catch_unwind(|| Trainer::new(cfg).run_ft(&ft(&dir, 0)));
    assert!(
        stopped.is_err(),
        "the failure must stop a run without restarts"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("MANIFEST")).unwrap(),
        "4\n"
    );
    assert!(dir.join("step8").join("rank0.bglu").exists());
    assert!(!dir.join("step8").join("rank1.bglu").exists());
    assert_eq!(
        staging_files(&dir),
        0,
        "a lost stage two left its staging file"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Recovered: steps 0..9 ran, step 4 is the newest committed, so five
    // steps are re-executed, and the re-executed step 8 commits.
    let dir = tmp_dir("lost-stage-two");
    let r = Trainer::new(cfg).run_ft(&ft(&dir, 2));
    assert_eq!(r.restarts, 1);
    assert_eq!(r.lost_steps, 5, "lost at 9, restored from 4");
    assert_eq!(
        std::fs::read_to_string(dir.join("MANIFEST")).unwrap(),
        "8\n"
    );
    assert_eq!(staging_files(&dir), 0);

    // Bit for bit what a run resumed from the same step-4 checkpoint does.
    let resumed = Trainer::new(cfg).run_ft(&FtConfig {
        resume_step: 4,
        ckpt_every: 4,
        heartbeat_ms: 300,
        ..FtConfig::new(&dir)
    });
    let bits = |curve: &[f32]| curve.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r.loss_curve[4..]), bits(&resumed.loss_curve[4..]));
    let _ = std::fs::remove_dir_all(&dir);
}
