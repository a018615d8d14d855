//! Request options and result reports for the engine pipeline.
//!
//! A [`ProgramReport`] is the JSON-serializable summary of one program's
//! trip through parse → analyze → parallelize → verify → (optionally)
//! execute.  Reports encode to JSON through the service layer's value
//! module ([`crate::service::json`]) and — unlike the write-only renderer
//! this file used to hold — decode back: `from_json_value(to_json_value(r))
//! == r` exactly, which is what lets a `sild` daemon ship reports to a
//! remote `silp` that then renders byte-identical output to an in-process
//! run.

use crate::service::json::{hex64, parse_hex64, Json};
use std::fmt::Write as _;

/// What the pipeline should do beyond the (always-run) analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessOptions {
    /// Run the packing parallelizer and include its transform count.
    pub parallelize: bool,
    /// Statically verify the parallelized output.
    pub verify: bool,
    /// Execute the program(s) on the deterministic interpreter and report
    /// work/span.
    pub execute: bool,
    /// Include the pretty-printed parallelized source in the report.
    pub emit_parallel_source: bool,
    /// Node-store capacity for execution.
    pub store_capacity: usize,
}

impl Default for ProcessOptions {
    fn default() -> Self {
        ProcessOptions {
            parallelize: true,
            verify: true,
            execute: false,
            emit_parallel_source: false,
            store_capacity: 1 << 18,
        }
    }
}

impl ProcessOptions {
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("parallelize", Json::Bool(self.parallelize)),
            ("verify", Json::Bool(self.verify)),
            ("execute", Json::Bool(self.execute)),
            (
                "emit_parallel_source",
                Json::Bool(self.emit_parallel_source),
            ),
            ("store_capacity", Json::Int(self.store_capacity as i64)),
        ])
    }

    pub fn from_json_value(value: &Json) -> Result<ProcessOptions, String> {
        let flag = |key: &str| -> Result<bool, String> {
            field(value, key)?
                .as_bool()
                .ok_or_else(|| format!("\"{key}\" must be a bool"))
        };
        Ok(ProcessOptions {
            parallelize: flag("parallelize")?,
            verify: flag("verify")?,
            execute: flag("execute")?,
            emit_parallel_source: flag("emit_parallel_source")?,
            store_capacity: field(value, "store_capacity")?
                .as_u64()
                .ok_or("\"store_capacity\" must be a count")? as usize,
        })
    }
}

/// Work/span accounting of one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    pub work: u64,
    pub span: u64,
    pub parallelism: f64,
    pub allocated_nodes: usize,
}

impl ExecutionReport {
    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("work", Json::Int(self.work as i64)),
            ("span", Json::Int(self.span as i64)),
            ("parallelism", Json::Float(self.parallelism)),
            ("allocated_nodes", Json::Int(self.allocated_nodes as i64)),
        ])
    }

    fn from_json_value(value: &Json) -> Result<ExecutionReport, String> {
        Ok(ExecutionReport {
            work: field(value, "work")?
                .as_u64()
                .ok_or("work must be a count")?,
            span: field(value, "span")?
                .as_u64()
                .ok_or("span must be a count")?,
            parallelism: field(value, "parallelism")?
                .as_f64()
                .ok_or("parallelism must be a number")?,
            allocated_nodes: field(value, "allocated_nodes")?
                .as_u64()
                .ok_or("allocated_nodes must be a count")? as usize,
        })
    }
}

/// What incremental re-analysis reused for one program (present when the
/// engine runs in incremental mode and the program missed the whole-program
/// cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Procedures whose cone fingerprint had retained walks available.
    pub procedures_reused: usize,
    /// Procedures analyzed with no retained state (the stale cone).
    pub procedures_stale: usize,
    /// Fixpoint body walks actually performed.
    pub walks_performed: usize,
    /// Fixpoint body walks replayed from retained records.
    pub walks_reused: usize,
}

impl IncrementalReport {
    fn to_json_value(self) -> Json {
        Json::obj(vec![
            (
                "procedures_reused",
                Json::Int(self.procedures_reused as i64),
            ),
            ("procedures_stale", Json::Int(self.procedures_stale as i64)),
            ("walks_performed", Json::Int(self.walks_performed as i64)),
            ("walks_reused", Json::Int(self.walks_reused as i64)),
        ])
    }

    fn from_json_value(value: &Json) -> Result<IncrementalReport, String> {
        let count = |key: &str| -> Result<usize, String> {
            field(value, key)?
                .as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| format!("\"{key}\" must be a count"))
        };
        Ok(IncrementalReport {
            procedures_reused: count("procedures_reused")?,
            procedures_stale: count("procedures_stale")?,
            walks_performed: count("walks_performed")?,
            walks_reused: count("walks_reused")?,
        })
    }
}

/// The full pipeline result for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramReport {
    /// The program's declared name.
    pub name: String,
    /// Content fingerprint of the normalized AST (the cache key).
    pub fingerprint: u64,
    /// Whether the analysis was served from the program cache.
    pub cache_hit: bool,
    /// Structural classification at `main`'s exit (TREE / DAG / CYCLE).
    pub structure: String,
    /// No statement ever degraded the structure below TREE.
    pub preserves_tree: bool,
    /// Structure warnings, rendered.
    pub warnings: Vec<String>,
    /// Rounds the interprocedural analysis needed.
    pub rounds: usize,
    /// Stable digest of the full analysis result.
    pub analysis_digest: u64,
    /// Incremental-reuse counters (engine in incremental mode, program
    /// cache missed).
    pub incremental: Option<IncrementalReport>,
    /// Number of parallelizing transformations applied (when requested).
    pub transforms: Option<usize>,
    /// Static verifier findings on the parallelized output (when requested).
    pub violations: Vec<String>,
    /// The parallelized program text (only when requested).
    pub parallel_source: Option<String>,
    /// Sequential execution metrics (when requested).
    pub sequential_execution: Option<ExecutionReport>,
    /// Parallelized execution metrics (when requested and parallelized).
    pub parallel_execution: Option<ExecutionReport>,
}

pub(crate) fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

pub(crate) fn string_list(value: &Json) -> Result<Vec<String>, String> {
    value
        .as_arr()
        .ok_or("expected an array of strings")?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| "expected a string".to_string())
        })
        .collect()
}

fn string_list_json(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

impl ProgramReport {
    /// The report as a JSON value.  Optional fields are omitted (not
    /// `null`) when absent, and the member order is stable.
    pub fn to_json_value(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("name", Json::Str(self.name.clone())),
            ("fingerprint", hex64(self.fingerprint)),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("structure", Json::Str(self.structure.clone())),
            ("preserves_tree", Json::Bool(self.preserves_tree)),
            ("warnings", string_list_json(&self.warnings)),
            ("rounds", Json::Int(self.rounds as i64)),
            ("analysis_digest", hex64(self.analysis_digest)),
        ];
        if let Some(incremental) = self.incremental {
            fields.push(("incremental", incremental.to_json_value()));
        }
        if let Some(transforms) = self.transforms {
            fields.push(("transforms", Json::Int(transforms as i64)));
        }
        fields.push(("violations", string_list_json(&self.violations)));
        if let Some(src) = &self.parallel_source {
            fields.push(("parallel_source", Json::Str(src.clone())));
        }
        if let Some(seq) = &self.sequential_execution {
            fields.push(("sequential_execution", seq.to_json_value()));
        }
        if let Some(par) = &self.parallel_execution {
            fields.push(("parallel_execution", par.to_json_value()));
        }
        Json::obj(fields)
    }

    /// Decode a report encoded by [`ProgramReport::to_json_value`].
    pub fn from_json_value(value: &Json) -> Result<ProgramReport, String> {
        Ok(ProgramReport {
            name: field(value, "name")?
                .as_str()
                .ok_or("name must be a string")?
                .to_string(),
            fingerprint: parse_hex64(field(value, "fingerprint")?)?,
            cache_hit: field(value, "cache_hit")?
                .as_bool()
                .ok_or("cache_hit must be a bool")?,
            structure: field(value, "structure")?
                .as_str()
                .ok_or("structure must be a string")?
                .to_string(),
            preserves_tree: field(value, "preserves_tree")?
                .as_bool()
                .ok_or("preserves_tree must be a bool")?,
            warnings: string_list(field(value, "warnings")?)?,
            rounds: field(value, "rounds")?
                .as_u64()
                .ok_or("rounds must be a count")? as usize,
            analysis_digest: parse_hex64(field(value, "analysis_digest")?)?,
            incremental: value
                .get("incremental")
                .map(IncrementalReport::from_json_value)
                .transpose()?,
            transforms: value
                .get("transforms")
                .map(|t| {
                    t.as_u64()
                        .map(|v| v as usize)
                        .ok_or("transforms must be a count")
                })
                .transpose()?,
            violations: string_list(field(value, "violations")?)?,
            parallel_source: value
                .get("parallel_source")
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or("parallel_source must be a string")
                })
                .transpose()?,
            sequential_execution: value
                .get("sequential_execution")
                .map(ExecutionReport::from_json_value)
                .transpose()?,
            parallel_execution: value
                .get("parallel_execution")
                .map(ExecutionReport::from_json_value)
                .transpose()?,
        })
    }

    /// Render the report as a single JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_value().encode()
    }

    /// Parse a report rendered by [`ProgramReport::to_json`].
    pub fn from_json(src: &str) -> Result<ProgramReport, String> {
        let value = Json::parse(src).map_err(|e| e.to_string())?;
        ProgramReport::from_json_value(&value)
    }

    /// Render the report as a short human-readable block.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} [{}{:016x}]",
            self.name,
            if self.cache_hit { "cached " } else { "" },
            self.fingerprint
        );
        let _ = writeln!(
            out,
            "  structure: {} ({} warnings), {} rounds",
            self.structure,
            self.warnings.len(),
            self.rounds
        );
        if let Some(inc) = self.incremental {
            let _ = writeln!(
                out,
                "  incremental: {} procedures reused / {} stale, {} walks replayed / {} performed",
                inc.procedures_reused, inc.procedures_stale, inc.walks_reused, inc.walks_performed
            );
        }
        if let Some(transforms) = self.transforms {
            let _ = writeln!(out, "  parallelized: {transforms} transforms");
        }
        if !self.violations.is_empty() {
            let _ = writeln!(out, "  VIOLATIONS: {}", self.violations.join("; "));
        }
        if let Some(seq) = &self.sequential_execution {
            let _ = writeln!(
                out,
                "  sequential: work={} span={} parallelism={:.2}",
                seq.work, seq.span, seq.parallelism
            );
        }
        if let Some(par) = &self.parallel_execution {
            let _ = writeln!(
                out,
                "  parallel:   work={} span={} parallelism={:.2}",
                par.work, par.span, par.parallelism
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProgramReport {
        ProgramReport {
            name: "t".into(),
            fingerprint: 0xabcd,
            cache_hit: true,
            structure: "TREE".into(),
            preserves_tree: true,
            warnings: vec!["w \"quoted\"".into()],
            rounds: 2,
            analysis_digest: 1,
            incremental: Some(IncrementalReport {
                procedures_reused: 3,
                procedures_stale: 1,
                walks_performed: 2,
                walks_reused: 6,
            }),
            transforms: Some(3),
            violations: vec![],
            parallel_source: None,
            sequential_execution: Some(ExecutionReport {
                work: 10,
                span: 5,
                parallelism: 2.0,
                allocated_nodes: 7,
            }),
            parallel_execution: None,
        }
    }

    #[test]
    fn report_renders_the_stable_shape() {
        let json = sample_report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"t\""));
        assert!(json.contains("\"fingerprint\":\"000000000000abcd\""));
        assert!(json.contains("\"cache_hit\":true"));
        assert!(json.contains("\"incremental\":{\"procedures_reused\":3"));
        assert!(json.contains("\"walks_reused\":6"));
        assert!(json.contains("\"transforms\":3"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"work\":10"));
        assert!(json.contains("\"parallelism\":2.0"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = report.to_json();
        let back = ProgramReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json, "encode ∘ parse ∘ encode is identity");
    }

    #[test]
    fn absent_optional_fields_stay_absent() {
        let report = ProgramReport {
            incremental: None,
            transforms: None,
            sequential_execution: None,
            ..sample_report()
        };
        let json = report.to_json();
        assert!(!json.contains("incremental"));
        assert!(!json.contains("transforms"));
        assert!(!json.contains("null"));
        let back = ProgramReport::from_json(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn process_options_round_trip() {
        let options = ProcessOptions {
            parallelize: false,
            verify: true,
            execute: true,
            emit_parallel_source: true,
            store_capacity: 123,
        };
        let back = ProcessOptions::from_json_value(&options.to_json_value()).unwrap();
        assert_eq!(back, options);
    }

    #[test]
    fn decoding_rejects_missing_fields() {
        let err = ProgramReport::from_json("{\"name\":\"x\"}").unwrap_err();
        assert!(err.contains("missing"), "{err}");
        assert!(ProgramReport::from_json("not json").is_err());
    }
}
