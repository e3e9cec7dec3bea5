//! Open-loop load: a seeded Poisson arrival schedule, the generator loop that
//! sends each request at its due time, latency accounting from the *due*
//! time, and the rule that says whether a rate met its latency limits.
//!
//! Nothing here touches the product: the generator takes a `send` closure,
//! so the unit tests drive it with a fake that stalls.

use std::time::{Duration, Instant};

/// splitmix64 — the benchmark's own stream for arrival gaps and prompts, so
/// the schedule does not shift when the product's generator changes.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due times (offsets from the window start) of a Poisson process of
/// `rate_rps` over `window`: exponential gaps, seeded, so one seed gives one
/// schedule.
pub fn poisson_schedule(rate_rps: f64, window: Duration, seed: u64) -> Vec<Duration> {
    assert!(rate_rps > 0.0);
    let mut rng = SplitMix(seed);
    let mut t = 0.0f64;
    let mut due = Vec::new();
    loop {
        t += -rng.unit().ln() / rate_rps;
        if t >= window.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// One request as the generator saw it.
pub struct Sent<T> {
    /// When the schedule wanted it sent.
    pub due: Instant,
    /// When `send` was actually called. `sent - due` is how late the
    /// generator ran; it is charged to the request's latency.
    pub sent: Instant,
    pub handle: T,
}

/// Send every scheduled request at its due time from the calling thread,
/// never waiting for a reply (open loop). When a send runs late the
/// following ones go out back to back, each still carrying its own due time.
pub fn run_open_loop<T>(
    start: Instant,
    schedule: &[Duration],
    mut send: impl FnMut(usize) -> T,
) -> Vec<Sent<T>> {
    schedule
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            let due = start + offset;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            Sent {
                due,
                sent,
                handle: send(i),
            }
        })
        .collect()
}

/// Latency of one answered request, in milliseconds, timed from its due
/// time: generator lateness + queue wait + prefill is time to first token;
/// decode time over the remaining tokens is time per output token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub late_ms: f64,
    pub ttft_ms: f64,
    pub tpot_ms: f64,
    /// Offset of the due time from the window start, seconds.
    pub due_s: f64,
    /// Offset of completion from the window start, seconds.
    pub done_s: f64,
}

pub fn latency(
    start: Instant,
    due: Instant,
    sent: Instant,
    queue_wait_ns: u64,
    prefill_ns: u64,
    decode_ns: u64,
    max_new: usize,
) -> Latency {
    let late_ns = sent.saturating_duration_since(due).as_nanos() as u64;
    let ttft_ns = late_ns + queue_wait_ns + prefill_ns;
    Latency {
        late_ms: late_ns as f64 / 1e6,
        ttft_ms: ttft_ns as f64 / 1e6,
        tpot_ms: decode_ns as f64 / 1e6 / (max_new.max(2) - 1) as f64,
        due_s: due.saturating_duration_since(start).as_secs_f64(),
        done_s: due.saturating_duration_since(start).as_secs_f64()
            + (ttft_ns + decode_ns) as f64 / 1e9,
    }
}

/// The latency limits a request must meet, and the share that must meet
/// them for a rate to count as sustained.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub ttft_ms: f64,
    pub tpot_ms: f64,
    pub min_share: f64,
    /// Requests the server works on at once; only those beyond it wait.
    pub in_service: usize,
}

/// Requests waiting at offset `t_s`: sent, not yet answered, and beyond the
/// ones the server has room to work on.
fn queue_at(slo: Slo, answered: &[Latency], unanswered_due_s: &[f64], t_s: f64) -> usize {
    let open = answered
        .iter()
        .filter(|l| l.due_s <= t_s && l.done_s > t_s)
        .count()
        + unanswered_due_s.iter().filter(|&&d| d <= t_s).count();
    open.saturating_sub(slo.in_service)
}

/// Share of requests *sent* that met both limits (a request that failed or
/// was refused misses), and whether the rate was sustained: the share
/// reaches `min_share` and no more requests are waiting at the end of the
/// window than at its midpoint.
pub fn judge(
    slo: Slo,
    answered: &[Latency],
    unanswered_due_s: &[f64],
    window_s: f64,
) -> (f64, bool) {
    let sent = answered.len() + unanswered_due_s.len();
    if sent == 0 {
        return (0.0, false);
    }
    let met = answered
        .iter()
        .filter(|l| l.ttft_ms <= slo.ttft_ms && l.tpot_ms <= slo.tpot_ms)
        .count();
    let share = met as f64 / sent as f64;
    let growing = queue_at(slo, answered, unanswered_due_s, window_s)
        > queue_at(slo, answered, unanswered_due_s, window_s / 2.0);
    (share, share >= slo.min_share && !growing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_right_rate() {
        let w = Duration::from_secs(50);
        let a = poisson_schedule(40.0, w, 7);
        assert_eq!(a, poisson_schedule(40.0, w, 7));
        assert_ne!(a, poisson_schedule(40.0, w, 8));
        assert!(a.windows(2).all(|p| p[0] <= p[1]) && *a.last().unwrap() < w);
        // 2000 expected arrivals, sd ≈ 45.
        assert!((a.len() as f64 - 2000.0).abs() < 200.0, "{}", a.len());
        // Exponential gaps: about 1 − 1/e of them are shorter than the mean.
        let short = a
            .windows(2)
            .filter(|p| (p[1] - p[0]).as_secs_f64() < 1.0 / 40.0)
            .count() as f64
            / (a.len() - 1) as f64;
        assert!((short - 0.632).abs() < 0.05, "{short}");
    }

    #[test]
    fn a_generator_stall_is_charged_to_the_requests_it_delays() {
        // Ten requests 5 ms apart; sending the third blocks for 60 ms. The
        // ones due during the stall go out late, and their lateness — not
        // just their service time — must show in TTFT.
        let schedule: Vec<Duration> = (0..10).map(|i| Duration::from_millis(5 * i)).collect();
        let start = Instant::now();
        let sent = run_open_loop(start, &schedule, |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(60));
            }
            i
        });
        assert_eq!(sent.len(), 10);
        let lat: Vec<Latency> = sent
            .iter()
            .map(|s| latency(start, s.due, s.sent, 1_000_000, 2_000_000, 15_000_000, 16))
            .collect();
        // Before the stall the generator is on time.
        assert!(lat[1].late_ms < 20.0, "{:?}", lat[1]);
        // Request 3 was due at 15 ms but could not leave before ~70 ms.
        assert!(lat[3].late_ms > 40.0, "{:?}", lat[3]);
        assert!((lat[3].ttft_ms - (lat[3].late_ms + 3.0)).abs() < 1e-9);
        // Later requests are due after the stall ends or catch up.
        assert!(lat[9].late_ms < lat[3].late_ms);
        // Due times are the schedule's, not the send times.
        assert!((lat[3].due_s - 0.015).abs() < 1e-9);
        assert_eq!(lat[0].tpot_ms, 1.0);
    }

    fn lat(ttft_ms: f64, tpot_ms: f64, due_s: f64, done_s: f64) -> Latency {
        Latency {
            late_ms: 0.0,
            ttft_ms,
            tpot_ms,
            due_s,
            done_s,
        }
    }

    #[test]
    fn slo_counts_refused_requests_as_misses_and_rejects_a_growing_backlog() {
        let slo = Slo {
            ttft_ms: 250.0,
            tpot_ms: 40.0,
            min_share: 0.9,
            in_service: 2,
        };
        let good: Vec<Latency> = (0..10)
            .map(|i| lat(100.0, 20.0, i as f64, i as f64 + 0.5))
            .collect();
        assert_eq!(judge(slo, &good, &[], 10.0), (1.0, true));

        // One of ten over the TPOT limit: 90 % still passes.
        let mut nine = good.clone();
        nine[4].tpot_ms = 41.0;
        assert_eq!(judge(slo, &nine, &[], 10.0), (0.9, true));
        // A second miss, this time on TTFT, does not.
        nine[5].ttft_ms = 251.0;
        assert_eq!(judge(slo, &nine, &[], 10.0), (0.8, false));

        // Two requests never answered: they count as sent and missed.
        let (share, ok) = judge(slo, &good, &[3.0, 4.0], 10.0);
        assert!((share - 10.0 / 12.0).abs() < 1e-12 && !ok);

        // All within limits, but the queue is longer at the end than at the
        // midpoint: the rate is not sustained.
        let piling: Vec<Latency> = (0..10)
            .map(|i| {
                lat(
                    100.0,
                    20.0,
                    i as f64,
                    if i < 5 { i as f64 + 0.5 } else { 11.0 },
                )
            })
            .collect();
        assert_eq!(judge(slo, &piling, &[], 10.0), (1.0, false));
        // The same five open requests are not a queue on a server that works
        // on eight at once.
        let roomy = Slo {
            in_service: 8,
            ..slo
        };
        assert_eq!(judge(roomy, &piling, &[], 10.0), (1.0, true));
        assert_eq!(judge(slo, &[], &[], 10.0), (0.0, false));
    }
}
