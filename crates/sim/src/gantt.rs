//! ASCII Gantt rendering of simulation traces.
//!
//! Renders the machine × time grids the paper uses to illustrate schedules
//! (Figs. 1 and 4): one row per machine, one column per time quantum, each
//! cell showing the job occupying that machine (or `.` when idle).

use std::collections::HashMap;

use crate::job::JobId;
use crate::trace::{TraceEvent, TraceLog};
use crate::Time;

/// Symbol assigned to the `i`-th distinct job in the trace.
// srclint: checked-indexing: the index is reduced modulo the non-empty
// table's own length.
fn symbol(i: usize) -> char {
    const SYMS: &[u8] = b"123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    SYMS[i % SYMS.len()] as char
}

/// Renders the schedule recorded in `trace` over `[t0, t1)` at the given
/// time quantum, for a cluster of `num_nodes` machines.
///
/// Returns a multi-line string: a legend mapping symbols to jobs, a header
/// of slice start times, and one row per machine.
// srclint: checked-indexing: `s` ranges over 0..slices, the row width;
// `sym_of` is keyed by every job of `jobs`; a node id at or above
// `num_nodes` is the caller passing another cluster's trace, and this
// renderer runs after the simulation, in examples only.
pub fn render(trace: &TraceLog, num_nodes: usize, t0: Time, t1: Time, quantum: u64) -> String {
    let quantum = quantum.max(1);
    let slices = ((t1.saturating_sub(t0)) / quantum).max(1) as usize;

    // Reconstruct per-node occupancy intervals from the trace.
    // (job, node) -> start; closed by Completed/Preempted events.
    let mut open: HashMap<JobId, (Time, Vec<u32>)> = HashMap::new();
    let mut intervals: Vec<(u32, Time, Time, JobId)> = Vec::new();
    for e in trace.events() {
        match e {
            TraceEvent::Launched { job, nodes, at, .. } => {
                open.insert(*job, (*at, nodes.iter().map(|n| n.0).collect()));
            }
            TraceEvent::Completed { job, at, .. } | TraceEvent::Preempted { job, at } => {
                if let Some((start, nodes)) = open.remove(job) {
                    for n in nodes {
                        intervals.push((n, start, *at, *job));
                    }
                }
            }
            _ => {}
        }
    }
    // Still-running jobs occupy through the end of the window.
    for (job, (start, nodes)) in open {
        for n in nodes {
            intervals.push((n, start, t1, job));
        }
    }

    // Stable symbols by job id order of first launch.
    let mut jobs: Vec<JobId> = Vec::new();
    for e in trace.events() {
        if let TraceEvent::Launched { job, .. } = e {
            if !jobs.contains(job) {
                jobs.push(*job);
            }
        }
    }
    let sym_of: HashMap<JobId, char> = jobs
        .iter()
        .enumerate()
        .map(|(i, &j)| (j, symbol(i)))
        .collect();

    let mut grid = vec![vec!['.'; slices]; num_nodes];
    for (node, start, end, job) in intervals {
        let sym = sym_of.get(&job).copied().unwrap_or('?');
        for (s, cell_t) in (0..slices).map(|s| (s, t0 + s as u64 * quantum)) {
            if cell_t >= start && cell_t < end {
                grid[node as usize][s] = sym;
            }
        }
    }

    let mut out = String::new();
    out.push_str("legend: ");
    for j in &jobs {
        out.push_str(&format!("{}={:?} ", sym_of[j], j));
    }
    out.push('\n');
    out.push_str("        t=");
    for s in 0..slices {
        out.push_str(&format!("{:<4}", t0 + s as u64 * quantum));
    }
    out.push('\n');
    for (n, row) in grid.iter().enumerate().rev() {
        out.push_str(&format!("  M{n:<3} |  "));
        for &c in row {
            out.push(c);
            out.push_str("   ");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_cluster::NodeId;
    use tetrisched_strl::JobClass;

    fn launched(job: u64, nodes: &[u32], at: Time) -> TraceEvent {
        TraceEvent::Launched {
            job: JobId(job),
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            preferred: true,
            at,
        }
    }

    #[test]
    fn renders_fig4_like_grid() {
        let mut log = TraceLog::new(true);
        log.record(TraceEvent::Submitted {
            job: JobId(0),
            class: JobClass::SloAccepted,
            at: 0,
        });
        log.record(launched(0, &[1, 2], 0));
        log.record(TraceEvent::Completed {
            job: JobId(0),
            met_deadline: Some(true),
            at: 10,
        });
        log.record(launched(1, &[0, 1, 2], 10));
        log.record(TraceEvent::Completed {
            job: JobId(1),
            met_deadline: Some(true),
            at: 20,
        });
        let g = render(&log, 3, 0, 40, 10);
        // Machine rows are printed top-down M2..M0.
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].starts_with("legend"));
        assert!(lines[2].contains("M2"));
        // M1 is busy with job 1 in slice 0 and job 2 in slice 1.
        let m1 = lines[3];
        assert!(m1.contains("M1"));
        assert!(m1.contains('1') && m1.contains('2'));
        // M0 idle in slice 0 (job 0 used nodes 1,2).
        let m0 = lines[4];
        assert!(m0.trim_start().starts_with("M0"));
    }

    #[test]
    fn running_job_extends_to_window_end() {
        let mut log = TraceLog::new(true);
        log.record(launched(0, &[0], 5));
        let g = render(&log, 1, 0, 20, 5);
        let m0 = g.lines().last().unwrap();
        // Busy in slices starting at 5, 10, 15; idle at 0.
        let cells: Vec<char> = m0
            .split("|  ")
            .nth(1)
            .unwrap()
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        assert_eq!(cells, vec!['.', '1', '1', '1']);
    }

    #[test]
    fn preemption_frees_the_node() {
        let mut log = TraceLog::new(true);
        log.record(launched(0, &[0], 0));
        log.record(TraceEvent::Preempted {
            job: JobId(0),
            at: 10,
        });
        let g = render(&log, 1, 0, 20, 10);
        let m0 = g.lines().last().unwrap();
        let cells: Vec<char> = m0
            .split("|  ")
            .nth(1)
            .unwrap()
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        assert_eq!(cells, vec!['1', '.']);
    }
}
