//! Paced open-schedule load over lockstep connections, and the
//! max-rate search.
//!
//! Each connection sends request `k` when it falls due on a fixed
//! schedule (global index `g = k * conns + c`, due at `start + g /
//! rate`), waits for its reply, and then waits for its next due time.
//! A request's latency counts from when it was *due*, not from when it
//! was sent: a slow reply makes the next request late, and that wait is
//! part of the next request's latency. How late each send was is
//! recorded too, so a generator that cannot keep its schedule shows.
//!
//! Time comes through a [`Clock`], so the tests drive the generator on
//! a fake clock without sleeping.

use crate::stats;
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source the generator sleeps on.
pub trait Clock: Sync {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Block until `now() >= t`.
    fn sleep_until(&self, t: Duration);
}

/// The wall clock. Waits by sleeping until [`SPIN_MARGIN`] before the
/// target and yielding in a loop for the rest: a sleeping thread wakes
/// late by a host-dependent amount (up to milliseconds on a virtual
/// machine), which would land in every request's latency, while a
/// generator that yields all the time competes for the cores with the
/// server it measures.
pub struct RealClock {
    origin: Instant,
}

/// How long before a due time the generator stops sleeping.
pub const SPIN_MARGIN: Duration = Duration::from_millis(2);

impl RealClock {
    pub fn new() -> RealClock {
        RealClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now + SPIN_MARGIN {
            std::thread::sleep(t - now - SPIN_MARGIN);
        }
        while self.now() < t {
            std::thread::yield_now();
        }
    }
}

/// A clock that moves only when told to: `sleep_until` jumps to the
/// target, and an operation under test calls [`FakeClock::advance`].
#[cfg(test)]
pub struct FakeClock {
    ns: AtomicU64,
}

#[cfg(test)]
impl FakeClock {
    pub fn new() -> FakeClock {
        FakeClock {
            ns: AtomicU64::new(0),
        }
    }

    pub fn advance(&self, d: Duration) {
        self.ns.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

#[cfg(test)]
impl Clock for FakeClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.ns.load(Ordering::SeqCst))
    }

    fn sleep_until(&self, t: Duration) {
        self.ns.fetch_max(t.as_nanos() as u64, Ordering::SeqCst);
    }
}

/// One paced phase: `conns` connections, `per_conn` requests each, at
/// `rate_rps` in total. A phase that runs past `max_wall` stops sending
/// (the requests it did not send are not attempted).
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    pub rate_rps: f64,
    pub conns: usize,
    pub per_conn: usize,
    pub max_wall: Duration,
}

/// What a phase did. Latency and lateness are in milliseconds, in the
/// order requests completed on each connection, connections appended.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    pub attempted: usize,
    pub ok: usize,
    pub failed: usize,
    pub latency_ms: Vec<f64>,
    /// Schedule index of each entry of `latency_ms`.
    pub latency_g: Vec<usize>,
    pub late_ms: Vec<f64>,
    /// Lateness of the first and of the last quarter of each
    /// connection's sends, pooled over connections.
    pub late_first_ms: Vec<f64>,
    pub late_last_ms: Vec<f64>,
    pub wall_s: f64,
    /// True when the phase hit `max_wall` before sending everything.
    pub cut_short: bool,
    pub first_error: Option<String>,
}

impl PhaseStats {
    /// Completed requests per second of phase wall time.
    pub fn achieved_rps(&self) -> f64 {
        self.ok as f64 / self.wall_s.max(1e-9)
    }

    /// Growth of the generator's lateness over the phase: the median
    /// lateness of the last quarter minus that of the first.
    pub fn late_growth_ms(&self) -> f64 {
        if self.late_first_ms.is_empty() || self.late_last_ms.is_empty() {
            return 0.0;
        }
        stats::median(&self.late_last_ms) - stats::median(&self.late_first_ms)
    }

    pub fn late_max_ms(&self) -> f64 {
        self.late_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Median latency of the whole phase; NaN when nothing completed.
    pub fn median(&self) -> f64 {
        if self.latency_ms.is_empty() {
            return f64::NAN;
        }
        stats::median(&self.latency_ms)
    }

    /// Latency tail of the whole phase, by the tail rule; NaN when
    /// nothing completed.
    pub fn tail(&self) -> stats::Tail {
        if self.latency_ms.is_empty() {
            return stats::Tail {
                value: f64::NAN,
                quantile: 0.5,
                n: 0,
            };
        }
        stats::tail(&self.latency_ms)
    }

    /// Whether the phase met a p99 limit without failures, without
    /// being cut short, and without a lateness trend of half the limit
    /// or more. The tail compared is that of the whole phase.
    pub fn sustained(&self, p99_limit_ms: f64) -> bool {
        self.failed == 0
            && !self.cut_short
            && self.tail().value <= p99_limit_ms
            && self.late_growth_ms() < p99_limit_ms / 2.0
    }
}

struct ConnLog {
    attempted: usize,
    ok: usize,
    failed: usize,
    latency_ms: Vec<f64>,
    latency_g: Vec<usize>,
    late_ms: Vec<f64>,
    cut_short: bool,
    first_error: Option<String>,
}

/// Run one paced phase. `make_op(c)` builds connection `c`'s operation;
/// the operation gets the request's global index and sends it in
/// lockstep.
pub fn run_paced<C, F>(clock: &C, pace: &Pace, mut make_op: impl FnMut(usize) -> F) -> PhaseStats
where
    C: Clock,
    F: FnMut(usize) -> Result<(), String> + Send,
{
    assert!(pace.conns > 0 && pace.rate_rps > 0.0, "empty pace");
    let ops: Vec<F> = (0..pace.conns).map(&mut make_op).collect();
    // A short lead so every connection's first due time is ahead of it.
    let start = clock.now() + Duration::from_millis(2);
    let deadline = start + pace.max_wall;
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .into_iter()
            .enumerate()
            .map(|(c, mut op)| {
                s.spawn(move || {
                    let mut log = ConnLog {
                        attempted: 0,
                        ok: 0,
                        failed: 0,
                        latency_ms: Vec::with_capacity(pace.per_conn),
                        latency_g: Vec::with_capacity(pace.per_conn),
                        late_ms: Vec::with_capacity(pace.per_conn),
                        cut_short: false,
                        first_error: None,
                    };
                    for k in 0..pace.per_conn {
                        let g = k * pace.conns + c;
                        let due = start + Duration::from_secs_f64(g as f64 / pace.rate_rps);
                        if clock.now() > deadline {
                            log.cut_short = true;
                            break;
                        }
                        clock.sleep_until(due);
                        let sent = clock.now();
                        log.attempted += 1;
                        let result = op(g);
                        let done = clock.now();
                        log.late_ms.push((sent - due).as_secs_f64() * 1e3);
                        match result {
                            Ok(()) => {
                                log.ok += 1;
                                log.latency_ms.push((done - due).as_secs_f64() * 1e3);
                                log.latency_g.push(g);
                            }
                            Err(e) => {
                                log.failed += 1;
                                log.first_error.get_or_insert(e);
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let wall_s = (clock.now().saturating_sub(start)).as_secs_f64();
    let mut out = PhaseStats {
        wall_s,
        ..PhaseStats::default()
    };
    for log in logs {
        let q = (log.late_ms.len() / 4).max(1).min(log.late_ms.len());
        out.late_first_ms.extend_from_slice(&log.late_ms[..q]);
        out.late_last_ms
            .extend_from_slice(&log.late_ms[log.late_ms.len() - q..]);
        out.attempted += log.attempted;
        out.ok += log.ok;
        out.failed += log.failed;
        out.latency_ms.extend(log.latency_ms);
        out.latency_g.extend(log.latency_g);
        out.late_ms.extend(log.late_ms);
        out.cut_short |= log.cut_short;
        if out.first_error.is_none() {
            out.first_error = log.first_error;
        }
    }
    out
}

/// One probe of the max-rate search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub offered_rps: f64,
    pub pass: bool,
    /// Completions per second the probe achieved.
    pub achieved_rps: f64,
}

/// Find the highest offered rate that passes: grow geometrically from
/// `start` by `growth` until a probe fails (or shrink until one passes),
/// then bisect between the last pass and the first fail, in log space,
/// `refine` times. Returns the highest passing probe, if any, and every
/// probe made.
pub fn search_max_rate(
    start: f64,
    growth: f64,
    refine: usize,
    max_probes: usize,
    mut probe: impl FnMut(f64) -> Step,
) -> (Option<Step>, Vec<Step>) {
    assert!(growth > 1.0 && start > 0.0);
    let mut steps = Vec::new();
    let mut run = |r: f64, steps: &mut Vec<Step>| {
        let s = probe(r);
        steps.push(s);
        s
    };
    let first = run(start, &mut steps);
    let (mut pass, mut fail) = if first.pass {
        let mut pass = first;
        loop {
            if steps.len() >= max_probes {
                return (Some(pass), steps);
            }
            let s = run(pass.offered_rps * growth, &mut steps);
            if !s.pass {
                break (pass, s);
            }
            pass = s;
        }
    } else {
        let mut fail = first;
        loop {
            if steps.len() >= max_probes {
                return (None, steps);
            }
            let s = run(fail.offered_rps / growth, &mut steps);
            if s.pass {
                break (s, fail);
            }
            fail = s;
        }
    };
    for _ in 0..refine {
        if steps.len() >= max_probes {
            break;
        }
        let mid = (pass.offered_rps * fail.offered_rps).sqrt();
        let s = run(mid, &mut steps);
        if s.pass {
            pass = s;
        } else {
            fail = s;
        }
    }
    (Some(pass), steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake server: each request takes 1 ms, except request 10,
    /// which stalls for 50 ms.
    fn stall_once(clock: &FakeClock) -> impl FnMut(usize) -> Result<(), String> + Send + '_ {
        move |g| {
            let d = if g == 10 { 50 } else { 1 };
            clock.advance(Duration::from_millis(d));
            Ok(())
        }
    }

    fn pace(rate: f64, conns: usize, per_conn: usize) -> Pace {
        Pace {
            rate_rps: rate,
            conns,
            per_conn,
            max_wall: Duration::from_secs(100),
        }
    }

    #[test]
    fn latency_counts_from_due_time_through_a_stall() {
        let clock = FakeClock::new();
        // 100 rps: one request due every 10 ms.
        let st = run_paced(&clock, &pace(100.0, 1, 30), |_| stall_once(&clock));
        assert_eq!((st.attempted, st.ok, st.failed), (30, 30, 0));
        let lat = &st.latency_ms;
        assert!((lat[9] - 1.0).abs() < 1e-9, "on-time request: 1 ms");
        assert!((lat[10] - 50.0).abs() < 1e-9, "the stall itself");
        // Request 11 was due at 110 ms but could only be sent at 150 ms:
        // its 40 ms wait counts, plus its own 1 ms service.
        assert!((lat[11] - 41.0).abs() < 1e-9, "got {}", lat[11]);
        assert!((st.late_ms[11] - 40.0).abs() < 1e-9);
        // The backlog drains by 9 ms per period (each request takes 1 ms
        // of a 10 ms period): 31, 22, 13, 4, then back on time.
        assert!((lat[12] - 32.0).abs() < 1e-9);
        assert!((lat[15] - 5.0).abs() < 1e-9);
        assert!((lat[16] - 1.0).abs() < 1e-9);
        assert!((st.late_max_ms() - 40.0).abs() < 1e-9);
        // A single stall is not a growing backlog.
        assert!(st.late_growth_ms().abs() < 1e-9);
        // A send-to-reply timer would have seen one slow request; from
        // due time, the stall delays six.
        assert_eq!(lat.iter().filter(|&&l| l > 1.0 + 1e-9).count(), 6);
    }

    #[test]
    fn an_overloaded_schedule_shows_growing_lateness() {
        let clock = FakeClock::new();
        // 5 ms service at 400 rps (2.5 ms period): the backlog grows.
        let st = run_paced(&clock, &pace(400.0, 1, 40), |_| {
            |_g: usize| {
                clock.advance(Duration::from_millis(5));
                Ok(())
            }
        });
        assert!(st.late_growth_ms() > 50.0, "{}", st.late_growth_ms());
        assert!(!st.sustained(10.0));
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let clock = FakeClock::new();
        let st = run_paced(&clock, &pace(100.0, 1, 20), |_| {
            |g: usize| {
                clock.advance(Duration::from_millis(1));
                if g.is_multiple_of(5) {
                    Err(format!("refused {g}"))
                } else {
                    Ok(())
                }
            }
        });
        assert_eq!((st.attempted, st.ok, st.failed), (20, 16, 4));
        assert_eq!(st.latency_ms.len(), 16);
        assert_eq!(st.first_error.as_deref(), Some("refused 0"));
        assert!(!st.sustained(100.0));
    }

    /// A fake server that stalls for `stall_ms` on every `every`-th
    /// request (a registry reload, say) and takes 1 ms otherwise.
    fn periodic_stalls(
        clock: &FakeClock,
        every: usize,
        stall_ms: u64,
    ) -> impl FnMut(usize) -> Result<(), String> + Send + '_ {
        move |g| {
            let d = if g % every == every - 1 { stall_ms } else { 1 };
            clock.advance(Duration::from_millis(d));
            Ok(())
        }
    }

    #[test]
    fn periodic_stalls_move_the_phase_tail() {
        // 2000 requests at 200 rps (5 ms apart), a stall every 500.
        let quiet = {
            let clock = FakeClock::new();
            run_paced(&clock, &pace(200.0, 1, 2000), |_| {
                periodic_stalls(&clock, 500, 1)
            })
        };
        assert_eq!(quiet.tail().quantile, 0.99);
        assert!((quiet.tail().value - 1.0).abs() < 1e-9);
        // A 20 ms stall delays the four requests due behind it; four
        // stalls hold 20 of 2000 latencies above 1 ms, just under 1%.
        let short = {
            let clock = FakeClock::new();
            run_paced(&clock, &pace(200.0, 1, 2000), |_| {
                periodic_stalls(&clock, 500, 20)
            })
        };
        assert!(
            (short.tail().value - 1.0).abs() < 1e-9,
            "{}",
            short.tail().value
        );
        // Twice the stall delays twice the requests: the p99 moves.
        let long = {
            let clock = FakeClock::new();
            run_paced(&clock, &pace(200.0, 1, 2000), |_| {
                periodic_stalls(&clock, 500, 40)
            })
        };
        assert!(long.tail().value > 5.0, "{}", long.tail().value);
        assert!(long.sustained(40.0));
        assert!(!long.sustained(5.0));
    }

    #[test]
    fn a_phase_past_its_wall_limit_is_cut_short() {
        let clock = FakeClock::new();
        let p = Pace {
            max_wall: Duration::from_millis(100),
            ..pace(1000.0, 1, 1000)
        };
        let st = run_paced(&clock, &p, |_| {
            |_g: usize| {
                clock.advance(Duration::from_millis(20));
                Ok(())
            }
        });
        assert!(st.cut_short);
        assert!(st.attempted < 10);
        assert_eq!(st.attempted, st.ok);
    }

    /// A synthetic service curve: every rate up to the capacity passes.
    fn curve(capacity: f64) -> impl FnMut(f64) -> Step {
        move |r| Step {
            offered_rps: r,
            pass: r <= capacity,
            achieved_rps: r.min(capacity),
        }
    }

    #[test]
    fn search_brackets_the_capacity_from_below() {
        let (best, steps) = search_max_rate(100.0, 1.5, 6, 64, curve(437.0));
        let best = best.expect("100 rps passes");
        assert!(best.pass && best.offered_rps <= 437.0);
        // 100·1.5^3 = 337.5 passes, 506.25 fails; six halvings of that
        // log interval leave a gap under 1%.
        assert!(best.offered_rps > 437.0 * 0.99, "{}", best.offered_rps);
        assert_eq!(steps.len(), 5 + 6);
    }

    #[test]
    fn search_shrinks_when_the_start_rate_fails() {
        let (best, _) = search_max_rate(1000.0, 2.0, 4, 64, curve(150.0));
        let best = best.expect("125 rps passes");
        assert!(best.offered_rps <= 150.0 && best.offered_rps > 150.0 / 2f64.powf(1.0 / 16.0));
    }

    #[test]
    fn search_respects_its_probe_budget() {
        let (best, steps) = search_max_rate(1.0, 2.0, 4, 5, curve(1e9));
        assert_eq!(steps.len(), 5);
        assert_eq!(best.unwrap().offered_rps, 16.0);
        let (none, steps) = search_max_rate(100.0, 2.0, 4, 3, curve(1.0));
        assert!(none.is_none());
        assert_eq!(steps.len(), 3);
    }
}
