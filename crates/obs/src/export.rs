//! Exporters: JSONL event dumps and Chrome trace-event JSON.
//!
//! [`jsonl`] writes one self-describing JSON object per line — the
//! grep/jq-friendly form. [`chrome_trace`] writes the Chrome
//! trace-event format (the `{"traceEvents": [...]}` flavour), which
//! loads directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`: rounds render as spans on one track, each
//! parallel worker gets its own track, merges nest inside their round,
//! and mode switches / rewires / phases / epochs / faults appear as
//! instant markers.

use crate::plane::{Event, FlightRecorder};

/// Track (tid) layout of the exported trace.
const TID_ROUNDS: u32 = 0;
const TID_PHASES: u32 = 1;
const TID_EPOCHS: u32 = 2;
const TID_FAULTS: u32 = 3;
/// Worker `w` renders on tid `TID_WORKER_BASE + w`.
const TID_WORKER_BASE: u32 = 10;

/// Microseconds (Chrome trace unit) from nanoseconds, with sub-µs
/// precision preserved.
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// One event as a single-line JSON object (no trailing newline).
pub fn event_json(ev: &Event) -> String {
    match *ev {
        Event::RoundSpan {
            round,
            t0_ns,
            t1_ns,
            stepped,
            sent,
            dense,
            workers,
        } => format!(
            "{{\"ev\": \"round\", \"round\": {round}, \"t0_ns\": {t0_ns}, \"t1_ns\": {t1_ns}, \
             \"stepped\": {stepped}, \"sent\": {sent}, \"dense\": {dense}, \"workers\": {workers}}}"
        ),
        Event::ModeSwitch {
            t_ns,
            round,
            to_dense,
            wake_len,
        } => format!(
            "{{\"ev\": \"mode_switch\", \"t_ns\": {t_ns}, \"round\": {round}, \
             \"to_dense\": {to_dense}, \"wake_len\": {wake_len}}}"
        ),
        Event::Phase {
            t_ns,
            index,
            label,
            rounds,
            matching,
            aborted,
        } => format!(
            "{{\"ev\": \"phase\", \"t_ns\": {t_ns}, \"index\": {index}, \"label\": \"{label}\", \
             \"rounds\": {rounds}, \"matching\": {matching}, \"aborted\": {aborted}}}"
        ),
        Event::Epoch {
            t_ns,
            epoch,
            rounds,
            damage,
            woken,
            radius,
        } => format!(
            "{{\"ev\": \"epoch\", \"t_ns\": {t_ns}, \"epoch\": {epoch}, \"rounds\": {rounds}, \
             \"damage\": {damage}, \"woken\": {woken}, \"radius\": {radius}}}"
        ),
        Event::Rewire {
            t_ns,
            round,
            added,
            removed,
            dirty,
        } => format!(
            "{{\"ev\": \"rewire\", \"t_ns\": {t_ns}, \"round\": {round}, \"added\": {added}, \
             \"removed\": {removed}, \"dirty\": {dirty}}}"
        ),
        Event::RepairBall {
            t_ns,
            damage_nodes,
            radius,
            ball,
        } => format!(
            "{{\"ev\": \"repair_ball\", \"t_ns\": {t_ns}, \"damage_nodes\": {damage_nodes}, \
             \"radius\": {radius}, \"ball\": {ball}}}"
        ),
        Event::WorkerSpan {
            round,
            worker,
            t0_ns,
            t1_ns,
            nodes,
        } => format!(
            "{{\"ev\": \"worker\", \"round\": {round}, \"worker\": {worker}, \
             \"t0_ns\": {t0_ns}, \"t1_ns\": {t1_ns}, \"nodes\": {nodes}}}"
        ),
        Event::MergeSpan {
            round,
            t0_ns,
            t1_ns,
        } => format!(
            "{{\"ev\": \"merge\", \"round\": {round}, \"t0_ns\": {t0_ns}, \"t1_ns\": {t1_ns}}}"
        ),
        Event::Fault {
            t_ns,
            round,
            node,
            port,
            kind,
        } => format!(
            "{{\"ev\": \"fault\", \"t_ns\": {t_ns}, \"round\": {round}, \"node\": {node}, \
             \"port\": {port}, \"kind\": \"{}\"}}",
            kind.as_str()
        ),
        Event::BudgetViolation {
            t_ns,
            round,
            node,
            port,
            bits,
            budget,
        } => format!(
            "{{\"ev\": \"budget_violation\", \"t_ns\": {t_ns}, \"round\": {round}, \
             \"node\": {node}, \"port\": {port}, \"bits\": {bits}, \"budget\": {budget}}}"
        ),
    }
}

/// The recorder as JSONL: a `meta` header line (events kept/dropped),
/// then one line per event, oldest first.
pub fn jsonl(rec: &FlightRecorder) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"ev\": \"meta\", \"recorded\": {}, \"kept\": {}, \"dropped\": {}}}\n",
        rec.recorded(),
        rec.len(),
        rec.dropped()
    ));
    for ev in rec.events() {
        out.push_str(&event_json(ev));
        out.push('\n');
    }
    out
}

fn complete(name: &str, tid: u32, t0_ns: u64, t1_ns: u64, args: &str) -> String {
    // Clamp to 1 ns so zero-length spans stay visible in the viewer.
    let dur_ns = t1_ns.saturating_sub(t0_ns).max(1);
    format!(
        "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
         \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {args}}}",
        us(t0_ns),
        us(dur_ns),
    )
}

fn instant(name: &str, tid: u32, t_ns: u64, args: &str) -> String {
    format!(
        "{{\"name\": \"{name}\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": {tid}, \
         \"ts\": {:.3}, \"args\": {args}}}",
        us(t_ns)
    )
}

fn metadata(name: &str, tid: u32, value: &str) -> String {
    format!(
        "{{\"name\": \"{name}\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
         \"args\": {{\"name\": \"{value}\"}}}}"
    )
}

/// The recorder in Chrome trace-event format. Open the result in
/// Perfetto or `chrome://tracing`: rounds are spans on the `rounds`
/// track, each worker has its own `worker N` track, merges nest inside
/// their round, and everything else is an instant marker.
pub fn chrome_trace(rec: &FlightRecorder) -> String {
    let mut rows: Vec<String> = Vec::new();
    rows.push(metadata("process_name", TID_ROUNDS, "simnet"));
    rows.push(metadata("thread_name", TID_ROUNDS, "rounds"));
    let mut named_phases = false;
    let mut named_epochs = false;
    let mut named_faults = false;
    let mut max_worker: Option<u32> = None;

    for ev in rec.events() {
        match *ev {
            Event::RoundSpan {
                round,
                t0_ns,
                t1_ns,
                stepped,
                sent,
                dense,
                workers,
            } => {
                let args = format!(
                    "{{\"stepped\": {stepped}, \"sent\": {sent}, \"dense\": {dense}, \
                     \"workers\": {workers}}}"
                );
                rows.push(complete(
                    &format!("round {round}"),
                    TID_ROUNDS,
                    t0_ns,
                    t1_ns,
                    &args,
                ));
            }
            Event::MergeSpan {
                round,
                t0_ns,
                t1_ns,
            } => {
                rows.push(complete(
                    &format!("merge r{round}"),
                    TID_ROUNDS,
                    t0_ns,
                    t1_ns,
                    "{}",
                ));
            }
            Event::WorkerSpan {
                round,
                worker,
                t0_ns,
                t1_ns,
                nodes,
            } => {
                max_worker = Some(max_worker.map_or(worker, |m| m.max(worker)));
                let args = format!("{{\"round\": {round}, \"nodes\": {nodes}}}");
                rows.push(complete(
                    &format!("w{worker} r{round}"),
                    TID_WORKER_BASE + worker,
                    t0_ns,
                    t1_ns,
                    &args,
                ));
            }
            Event::ModeSwitch {
                t_ns,
                round,
                to_dense,
                wake_len,
            } => {
                let name = if to_dense {
                    "mode→dense"
                } else {
                    "mode→sparse"
                };
                let args = format!("{{\"round\": {round}, \"wake_len\": {wake_len}}}");
                rows.push(instant(name, TID_ROUNDS, t_ns, &args));
            }
            Event::Rewire {
                t_ns,
                round,
                added,
                removed,
                dirty,
            } => {
                let args = format!(
                    "{{\"round\": {round}, \"added\": {added}, \"removed\": {removed}, \
                     \"dirty\": {dirty}}}"
                );
                rows.push(instant("rewire", TID_ROUNDS, t_ns, &args));
            }
            Event::Phase {
                t_ns,
                index,
                label,
                rounds,
                matching,
                aborted,
            } => {
                named_phases = true;
                let args = format!(
                    "{{\"index\": {index}, \"rounds\": {rounds}, \"matching\": {matching}, \
                     \"aborted\": {aborted}}}"
                );
                rows.push(instant(&format!("phase {label}"), TID_PHASES, t_ns, &args));
            }
            Event::Epoch {
                t_ns,
                epoch,
                rounds,
                damage,
                woken,
                radius,
            } => {
                named_epochs = true;
                let args = format!(
                    "{{\"rounds\": {rounds}, \"damage\": {damage}, \"woken\": {woken}, \
                     \"radius\": {radius}}}"
                );
                rows.push(instant(&format!("epoch {epoch}"), TID_EPOCHS, t_ns, &args));
            }
            Event::RepairBall {
                t_ns,
                damage_nodes,
                radius,
                ball,
            } => {
                named_epochs = true;
                let args = format!(
                    "{{\"damage_nodes\": {damage_nodes}, \"radius\": {radius}, \"ball\": {ball}}}"
                );
                rows.push(instant("repair ball", TID_EPOCHS, t_ns, &args));
            }
            Event::Fault {
                t_ns,
                round,
                node,
                port,
                kind,
            } => {
                named_faults = true;
                let args = format!("{{\"round\": {round}, \"node\": {node}, \"port\": {port}}}");
                rows.push(instant(kind.as_str(), TID_FAULTS, t_ns, &args));
            }
            Event::BudgetViolation {
                t_ns,
                round,
                node,
                port,
                bits,
                budget,
            } => {
                named_faults = true;
                let args = format!(
                    "{{\"round\": {round}, \"node\": {node}, \"port\": {port}, \
                     \"bits\": {bits}, \"budget\": {budget}}}"
                );
                rows.push(instant("budget violation", TID_FAULTS, t_ns, &args));
            }
        }
    }

    if named_phases {
        rows.push(metadata("thread_name", TID_PHASES, "phases"));
    }
    if named_epochs {
        rows.push(metadata("thread_name", TID_EPOCHS, "epochs"));
    }
    if named_faults {
        rows.push(metadata("thread_name", TID_FAULTS, "faults"));
    }
    if let Some(m) = max_worker {
        for w in 0..=m {
            rows.push(metadata(
                "thread_name",
                TID_WORKER_BASE + w,
                &format!("worker {w}"),
            ));
        }
    }

    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::Name;

    fn sample() -> FlightRecorder {
        let mut r = FlightRecorder::new(64);
        r.push(Event::RoundSpan {
            round: 1,
            t0_ns: 1000,
            t1_ns: 5000,
            stepped: 42,
            sent: 17,
            dense: false,
            workers: 2,
        });
        r.push(Event::WorkerSpan {
            round: 1,
            worker: 0,
            t0_ns: 1200,
            t1_ns: 2000,
            nodes: 21,
        });
        r.push(Event::WorkerSpan {
            round: 1,
            worker: 1,
            t0_ns: 1300,
            t1_ns: 2100,
            nodes: 21,
        });
        r.push(Event::MergeSpan {
            round: 1,
            t0_ns: 2200,
            t1_ns: 2400,
        });
        r.push(Event::ModeSwitch {
            t_ns: 5100,
            round: 2,
            to_dense: true,
            wake_len: 999,
        });
        r.push(Event::Phase {
            t_ns: 6000,
            index: 0,
            label: Name::new("israeli-itai"),
            rounds: 12,
            matching: 7,
            aborted: false,
        });
        r.push(Event::Epoch {
            t_ns: 7000,
            epoch: 1,
            rounds: 9,
            damage: 2,
            woken: 11,
            radius: 3,
        });
        r.push(Event::Fault {
            t_ns: 7500,
            round: 4,
            node: 6,
            port: 2,
            kind: crate::plane::FaultKind::Drop,
        });
        r.push(Event::BudgetViolation {
            t_ns: 7600,
            round: 4,
            node: 6,
            port: 1,
            bits: 130,
            budget: 48,
        });
        r
    }

    #[test]
    fn fault_events_serialize_with_stable_tags() {
        use crate::plane::FaultKind;
        for (kind, tag) in [
            (FaultKind::Drop, "drop"),
            (FaultKind::Delay, "delay"),
            (FaultKind::Stall, "stall"),
            (FaultKind::Crash, "crash"),
            (FaultKind::Rejoin, "rejoin"),
        ] {
            let line = event_json(&Event::Fault {
                t_ns: 1,
                round: 2,
                node: 3,
                port: 4,
                kind,
            });
            let v = crate::json::parse(&line).expect("fault line parses");
            assert_eq!(v.get("ev").and_then(|e| e.as_str()), Some("fault"));
            assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some(tag));
        }
        let line = event_json(&Event::BudgetViolation {
            t_ns: 1,
            round: 2,
            node: 3,
            port: 4,
            bits: 200,
            budget: 48,
        });
        let v = crate::json::parse(&line).expect("budget line parses");
        assert_eq!(
            v.get("ev").and_then(|e| e.as_str()),
            Some("budget_violation")
        );
        assert_eq!(v.get("bits").and_then(|b| b.as_f64()), Some(200.0));
    }

    #[test]
    fn jsonl_is_parseable_line_per_event() {
        let rec = sample();
        let out = jsonl(&rec);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1 + rec.len());
        for line in &lines {
            let v = crate::json::parse(line).expect("each JSONL line parses");
            assert!(v.get("ev").is_some(), "line has an ev tag: {line}");
        }
        assert!(lines[0].contains("\"ev\": \"meta\""));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_tracks() {
        let rec = sample();
        let out = chrome_trace(&rec);
        let v = crate::json::parse(&out).expect("trace parses as JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // 1 round span + 2 worker spans + 1 merge span.
        let spans = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .count();
        assert_eq!(spans, 4);
        // Worker tracks named and distinct.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"rounds"));
        assert!(names.contains(&"worker 0"));
        assert!(names.contains(&"worker 1"));
        assert!(names.contains(&"phases"));
        assert!(names.contains(&"epochs"));
        assert!(names.contains(&"faults"));
        // Instant markers made it through.
        let instants = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .count();
        assert_eq!(instants, 5);
        // Spans carry positive durations in microseconds.
        for e in events {
            if e.get("ph").and_then(|p| p.as_str()) == Some("X") {
                assert!(e.get("dur").and_then(|d| d.as_f64()).unwrap() > 0.0);
            }
        }
    }
}
