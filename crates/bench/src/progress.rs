//! Live progress reporting for `nmt-cli bench --progress`.
//!
//! One `\r`-rewritten stderr line per update: matrices done/total, the
//! matrix and phase currently in flight, and an ETA extrapolated from the
//! completed matrices' wall times. Reporting is **off by default** and —
//! even when requested — auto-disabled when stderr is not a TTY, so CI
//! logs and redirected runs never fill with carriage returns.
//!
//! The reporter is shared across the sweep's rayon workers; it only
//! observes (an atomic done-counter and a mutexed "current" label) and
//! never feeds anything back, so enabling it cannot perturb the ledger's
//! byte-identical output. Elapsed time comes from a private
//! [`nmt_obs::Recorder`]'s monotonic clock, keeping wall-clock reads
//! routed through the sanctioned obs core.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Whether stderr is attached to a terminal.
pub fn stderr_is_tty() -> bool {
    // SAFETY: isatty only inspects the process's descriptor table.
    unsafe { libc::isatty(libc::STDERR_FILENO) != 0 }
}

/// Shared progress sink. Construct with [`ProgressReporter::new`]; call
/// [`update`](ProgressReporter::update) as matrices start phases and
/// [`matrix_done`](ProgressReporter::matrix_done) as they finish.
pub struct ProgressReporter {
    enabled: bool,
    total: usize,
    done: AtomicUsize,
    current: Mutex<String>,
    clock: nmt_obs::Recorder,
}

impl ProgressReporter {
    /// A reporter over `total` matrices. `requested` is the `--progress`
    /// flag; the reporter stays silent unless it is set **and** stderr is
    /// a TTY.
    pub fn new(total: usize, requested: bool) -> Self {
        Self::with_enabled(total, requested && stderr_is_tty())
    }

    /// Test hook: force the enabled state regardless of TTY-ness.
    pub fn with_enabled(total: usize, enabled: bool) -> Self {
        ProgressReporter {
            enabled,
            total,
            done: AtomicUsize::new(0),
            current: Mutex::new(String::new()),
            // Capacity 0: the clock is all we use, no spans are retained.
            clock: nmt_obs::Recorder::with_capacity(0),
        }
    }

    /// Whether lines will actually be written.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Matrices completed so far.
    pub fn completed(&self) -> usize {
        // ordering: monotone counter snapshot for a progress line; an
        // instantaneously stale read only delays the redraw by one tick.
        self.done.load(Ordering::Relaxed)
    }

    /// Record that `matrix` entered `phase` and redraw the line.
    pub fn update(&self, matrix: &str, phase: &str) {
        if self.enabled {
            let label = format!("{matrix}: {phase}");
            if let Ok(mut cur) = self.current.lock() {
                *cur = label;
            }
            self.redraw();
        }
    }

    /// Record one finished matrix and redraw the line.
    pub fn matrix_done(&self, matrix: &str) {
        let _ = matrix;
        // ordering: monotone completion counter; the result feeds only
        // the human progress line, never cross-thread state.
        self.done.fetch_add(1, Ordering::Relaxed);
        if self.enabled {
            self.redraw();
        }
    }

    /// Clear the live line and print the final summary (call once after
    /// the sweep so following output starts on a fresh line).
    pub fn finish(&self) {
        if self.enabled {
            eprint!("\r{:width$}\r", "", width = 79);
            eprint!("{}", self.finish_line());
            let _ = std::io::stderr().flush();
        }
    }

    /// The final summary [`finish`](Self::finish) prints: counts plus
    /// elapsed wall time, **always `\n`-terminated** so whatever the CLI
    /// prints next starts on its own line (a bare `\r`-cleared line left
    /// the cursor mid-line and let the next write splice into it).
    pub fn finish_line(&self) -> String {
        let elapsed_s = self.clock.now_ns() as f64 / 1e9;
        format!(
            "[{}/{}] sweep done in {elapsed_s:.1}s\n",
            self.completed(),
            self.total
        )
    }

    /// ETA in seconds from the mean wall time of completed matrices, or
    /// None before anything completed — and never for an empty suite,
    /// where `0/0` has no rate to extrapolate from.
    fn eta_seconds(&self) -> Option<f64> {
        let done = self.completed();
        if self.total == 0 || done == 0 || done >= self.total {
            return None;
        }
        let elapsed_s = self.clock.now_ns() as f64 / 1e9;
        Some(elapsed_s / done as f64 * (self.total - done) as f64)
    }

    /// The line body (exposed for tests; `redraw` prepends `\r`).
    pub fn render(&self) -> String {
        let done = self.completed();
        let current = self.current.lock().map(|c| c.clone()).unwrap_or_default();
        let eta = match self.eta_seconds() {
            Some(s) if s >= 60.0 => format!(" eta {:.0}m{:02.0}s", s / 60.0, s % 60.0),
            Some(s) => format!(" eta {s:.1}s"),
            None => String::new(),
        };
        let mut line = format!("[{done}/{}]{eta} {current}", self.total);
        line.truncate(78);
        line
    }

    fn redraw(&self) {
        eprint!("\r{:<78}", self.render());
        let _ = std::io::stderr().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_reporter_still_counts() {
        let p = ProgressReporter::with_enabled(3, false);
        assert!(!p.is_enabled());
        p.update("mat-a", "convert");
        p.matrix_done("mat-a");
        p.matrix_done("mat-b");
        assert_eq!(p.completed(), 2);
    }

    #[test]
    fn render_shows_done_total_and_current_phase() {
        let p = ProgressReporter::with_enabled(5, true);
        p.update("wiki-Vote", "kernel");
        let line = p.render();
        assert!(line.starts_with("[0/5]"), "{line}");
        assert!(line.contains("wiki-Vote: kernel"), "{line}");
        p.matrix_done("wiki-Vote");
        assert!(p.render().starts_with("[1/5]"));
    }

    #[test]
    fn eta_appears_only_after_first_completion() {
        let p = ProgressReporter::with_enabled(4, true);
        assert!(!p.render().contains("eta"), "no basis for an ETA yet");
        p.matrix_done("a");
        assert!(p.render().contains("eta"), "mean-based ETA after 1 done");
        p.matrix_done("b");
        p.matrix_done("c");
        p.matrix_done("d");
        assert!(
            !p.render().contains("eta"),
            "no ETA once everything is done"
        );
    }

    #[test]
    fn line_is_terminal_width_bounded() {
        let p = ProgressReporter::with_enabled(2, true);
        p.update(&"x".repeat(200), "convert");
        assert!(p.render().len() <= 78);
    }

    #[test]
    fn finish_line_is_newline_terminated() {
        let p = ProgressReporter::with_enabled(2, true);
        p.matrix_done("a");
        p.matrix_done("b");
        let line = p.finish_line();
        assert!(line.ends_with('\n'), "summary must own its line: {line:?}");
        assert!(line.starts_with("[2/2]"), "{line}");
        assert!(line.contains("sweep done in"), "{line}");
        // Exactly one terminator: the summary is a single line.
        assert_eq!(line.matches('\n').count(), 1);
    }

    #[test]
    fn empty_suite_renders_without_eta_glitch() {
        let p = ProgressReporter::with_enabled(0, true);
        assert!(p.render().starts_with("[0/0]"));
        assert!(!p.render().contains("eta"), "0/0 has no rate to project");
        // Even a spurious completion (more done than total) stays sane.
        p.matrix_done("stray");
        assert!(!p.render().contains("eta"));
        assert!(p.finish_line().starts_with("[1/0]"));
        assert!(p.finish_line().ends_with('\n'));
    }

    #[test]
    fn auto_detection_respects_request_flag() {
        // In a test runner stderr is a pipe, so even requested progress
        // must disable itself.
        let p = ProgressReporter::new(1, true);
        if !stderr_is_tty() {
            assert!(!p.is_enabled());
        }
        let off = ProgressReporter::new(1, false);
        assert!(!off.is_enabled(), "not requested => never enabled");
    }
}
