//! The traced run's per-layer ledger.
//!
//! The benchmark records a span around each public call it makes into
//! a layer. Spans live in memory, grouped under the root span of the op
//! (or request) that caused them, and carry a depth: the root is depth
//! 0, a layer call it makes directly is depth 1, a layer call made
//! inside that one is depth 2.
//!
//! A layer's *self time* is the wall time during which it is the deepest
//! active span. When several spans of the same depth run at once on
//! different threads, that stretch of wall time is split evenly between
//! them. Wall time with no layer span active is *unattributed*. Layer
//! self times plus unattributed time therefore sum to the roots' wall
//! time, and the ledger is trusted only while the unattributed share
//! stays within [`TOLERANCE`].

use std::collections::BTreeMap;
use std::time::Instant;

/// Largest unattributed share of the wall time at which the layer self
/// times still count as summing to the wall clock.
pub const TOLERANCE: f64 = 0.05;

/// One completed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub depth: u8,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn new(name: &'static str, depth: u8, start: Instant, end: Instant) -> Self {
        Span {
            name,
            depth,
            start,
            end,
        }
    }

    pub fn secs(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// CPU time the calling thread has used, seconds, from
/// `/proc/thread-self/schedstat`; `None` where that file is missing.
pub fn thread_cpu_secs() -> Option<f64> {
    // The kernel brings a running thread's count up to date only at a
    // tick or a switch; yielding forces one.
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

/// Time `f` as a span.
pub fn timed<R>(name: &'static str, depth: u8, f: impl FnOnce() -> R) -> (R, Span) {
    let start = Instant::now();
    let out = f();
    (out, Span::new(name, depth, start, Instant::now()))
}

/// Per-layer call counts, total durations and self times over every
/// root added.
#[derive(Debug, Default)]
pub struct Ledger {
    wall: f64,
    roots: u64,
    unattributed: f64,
    self_time: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, (u64, f64)>,
}

impl Ledger {
    /// Add one root span `[start, end]` and the layer spans it caused.
    pub fn add(&mut self, start: Instant, end: Instant, spans: &[Span]) {
        let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
        let wall = at(end);
        self.wall += wall;
        self.roots += 1;
        for s in spans {
            let entry = self.calls.entry(s.name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += s.secs();
        }

        // Sweep over span boundaries, clipped to the root. Ends sort
        // before starts at equal times so zero-length gaps stay empty.
        let mut events: Vec<(f64, i32, usize)> = Vec::with_capacity(spans.len() * 2 + 1);
        for (i, s) in spans.iter().enumerate() {
            let (a, b) = (at(s.start).min(wall), at(s.end).min(wall));
            if b > a {
                events.push((a, 1, i));
                events.push((b, -1, i));
            }
        }
        events.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        let max_depth = spans.iter().map(|s| s.depth as usize).max().unwrap_or(0);
        // active[depth][name] = spans of that name open at that depth.
        let mut active: Vec<BTreeMap<&'static str, u32>> = vec![BTreeMap::new(); max_depth + 1];
        let mut now = 0.0;
        for &(t, delta, i) in &events {
            self.attribute(&active, t - now);
            now = t;
            let s = &spans[i];
            let count = active[s.depth as usize].entry(s.name).or_insert(0);
            if delta > 0 {
                *count += 1;
            } else {
                *count -= 1;
                if *count == 0 {
                    active[s.depth as usize].remove(s.name);
                }
            }
        }
        self.attribute(&active, wall - now);
    }

    fn attribute(&mut self, active: &[BTreeMap<&'static str, u32>], dt: f64) {
        if dt <= 0.0 {
            return;
        }
        match active.iter().rev().find(|level| !level.is_empty()) {
            Some(level) => {
                let total: u32 = level.values().sum();
                for (name, &count) in level {
                    *self.self_time.entry(name).or_insert(0.0) += dt * count as f64 / total as f64;
                }
            }
            None => self.unattributed += dt,
        }
    }

    /// Σ root wall time, seconds.
    pub fn wall(&self) -> f64 {
        self.wall
    }

    /// Number of calls recorded for a layer.
    pub fn count(&self, name: &str) -> u64 {
        self.calls.get(name).map_or(0, |c| c.0)
    }

    /// Σ span duration of a layer, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |c| c.1)
    }

    /// Mean span duration of a layer in microseconds; 0 when the layer
    /// was never called.
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(&(n, total)) if n > 0 => total / n as f64 * 1e6,
            _ => 0.0,
        }
    }

    /// Wall time no layer span covered, as a share of the roots' wall.
    pub fn unattributed_share(&self) -> f64 {
        if self.wall > 0.0 {
            self.unattributed / self.wall
        } else {
            0.0
        }
    }

    /// Human-readable ledger: each layer's self time and share of the
    /// wall, then the sum check.
    pub fn render(&self) -> String {
        let mut out = format!("ledger: {} roots, wall {:.6} s\n", self.roots, self.wall);
        let share = |t: f64| if self.wall > 0.0 { t / self.wall } else { 0.0 };
        for (name, &t) in &self.self_time {
            out.push_str(&format!(
                "  {name:<28} self {:>12.6} s  {:>6.2}%  calls {}\n",
                t,
                100.0 * share(t),
                self.count(name)
            ));
        }
        out.push_str(&format!(
            "  {:<28} self {:>12.6} s  {:>6.2}%\n",
            "(unattributed)",
            self.unattributed,
            100.0 * share(self.unattributed)
        ));
        let attributed: f64 = self.self_time.values().sum();
        let verdict = if self.unattributed_share() <= TOLERANCE {
            "OK"
        } else {
            "FLAG"
        };
        out.push_str(&format!(
            "ledger sum check: {verdict}: layer self times {:.6} s of wall {:.6} s, \
             unattributed {:.2}% (tolerance {:.0}%)\n",
            attributed,
            self.wall,
            100.0 * self.unattributed_share(),
            100.0 * TOLERANCE
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_and_unattributed_sum_to_wall() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        // Root 0..100; a layer 10..60 with a nested call 20..40, and two
        // concurrent calls of another layer 70..90.
        let spans = [
            Span::new("outer", 1, ms(10), ms(60)),
            Span::new("inner", 2, ms(20), ms(40)),
            Span::new("pair", 1, ms(70), ms(90)),
            Span::new("pair", 1, ms(70), ms(90)),
        ];
        let mut ledger = Ledger::default();
        ledger.add(t0, ms(100), &spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(ledger.wall(), 0.100));
        assert!(close(ledger.self_time["outer"], 0.030));
        assert!(close(ledger.self_time["inner"], 0.020));
        assert!(close(ledger.self_time["pair"], 0.020));
        assert!(close(ledger.unattributed_share(), 0.3));
        assert_eq!(ledger.count("pair"), 2);
        assert!(close(ledger.mean_us("pair"), 20_000.0));
    }
}
