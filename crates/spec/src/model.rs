//! The scenario data model: strict decode from JSON, cross-field
//! validation, and canonical re-serialization.
//!
//! A scenario is the declarative unit of work for `scmd run/bench`
//! and the job service: workload system, potential, method Ψ, executor +
//! rank grid, integration parameters, and the optional fault /
//! observability / checkpoint plans. Decoding is *strict* — unknown fields
//! are rejected ([`SpecError::UnknownField`]) so a typo fails loudly
//! instead of silently falling back to a default — and every error names
//! the offending field by dotted path.
//!
//! [`ScenarioSpec::to_json`] emits the canonical form: every default
//! materialized, fields in pinned order. Canonicalization is idempotent
//! (`parse(to_json(s)) == s` and `to_json(parse(to_json(s))) ==
//! to_json(s)`), which the golden round-trip tests assert.

use crate::error::SpecError;
use sc_md::Method;
use sc_obs::json::Json;

/// The schema identifier every scenario document must carry.
pub const SCHEMA_ID: &str = "sc-scenario/1";

/// A fully-decoded, validated scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (also the default job label).
    pub name: String,
    /// The workload system to build.
    pub system: SystemSpec,
    /// The potential terms to attach.
    pub potential: PotentialSpec,
    /// The n-tuple computation method Ψ.
    pub method: Method,
    /// Which engine runs the scenario, and its decomposition.
    pub executor: ExecutorSpec,
    /// Integration timestep.
    pub dt: f64,
    /// Steps to integrate.
    pub steps: u64,
    /// Cell subdivision `k` (paper §6), 1–3.
    pub subdivision: i32,
    /// Morton re-sort cadence (0 = never).
    pub resort_every: u64,
    /// Optional Berendsen thermostat.
    pub thermostat: Option<ThermostatSpec>,
    /// Optional scripted fault storm (every executor; on `serial` the one
    /// rank faults its own self-messages).
    pub fault_plan: Option<FaultPlanSpec>,
    /// Observability sinks to enable.
    pub observability: ObservabilitySpec,
    /// Optional checkpoint schedule (used by supervised/served runs).
    pub checkpoint: Option<CheckpointSpec>,
}

/// Which workload to build. All systems are deterministic per seed.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemSpec {
    /// FCC Lennard-Jones crystal: `cells³` unit cells at lattice constant
    /// `a`, thermalized to `temp`.
    Lj {
        /// Unit cells per axis.
        cells: u64,
        /// Lattice constant.
        a: f64,
        /// Thermalization temperature.
        temp: f64,
        /// Seed for lattice noise and thermalization.
        seed: u64,
    },
    /// β-cristobalite-like SiO₂ (masses from the Vashishta silica
    /// parameterization).
    Silica {
        /// Conventional diamond cells per axis.
        cells: u64,
        /// Cell constant.
        a: f64,
        /// Thermalization temperature.
        temp: f64,
        /// Seed for lattice noise and thermalization.
        seed: u64,
    },
    /// Uniform random single-species gas.
    Gas {
        /// Atom count.
        n: u64,
        /// Cubic box edge.
        box_l: f64,
        /// Thermalization temperature.
        temp: f64,
        /// Seed for placement and thermalization.
        seed: u64,
    },
    /// Clustered (inhomogeneous) gas — Gaussian blobs, the non-uniform
    /// density profile that stresses per-rank load balance.
    Clustered {
        /// Atom count.
        n: u64,
        /// Cubic box edge.
        box_l: f64,
        /// Number of Gaussian blobs.
        clusters: u64,
        /// Per-axis standard deviation of each blob.
        spread: f64,
        /// Thermalization temperature.
        temp: f64,
        /// Seed for placement and thermalization.
        seed: u64,
    },
}

/// Which potential terms to attach.
#[derive(Debug, Clone, PartialEq)]
pub enum PotentialSpec {
    /// Reduced-unit Lennard-Jones pair term with the given cutoff.
    Lj {
        /// Pair cutoff in reduced units.
        cutoff: f64,
    },
    /// The Vashishta silica pair + triplet parameterization.
    Vashishta,
}

/// Which engine runs the scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutorSpec {
    /// One rank (a 1×1×1 grid) whose cell sweeps split over a pool.
    Serial {
        /// Force-evaluation lanes (0 = the host's parallelism).
        threads: u64,
    },
    /// The distributed engine over a `grid` of ranks. The spelling
    /// `"threaded"` decodes to this variant too.
    Bsp {
        /// Rank grid dimensions.
        grid: [u64; 3],
    },
}

impl SystemSpec {
    /// Short name used in case labels and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            SystemSpec::Lj { .. } => "lj",
            SystemSpec::Silica { .. } => "silica",
            SystemSpec::Gas { .. } => "gas",
            SystemSpec::Clustered { .. } => "clustered",
        }
    }
}

impl ExecutorSpec {
    /// Short name used in case labels and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecutorSpec::Serial { .. } => "serial",
            ExecutorSpec::Bsp { .. } => "bsp",
        }
    }
}

/// Berendsen thermostat parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermostatSpec {
    /// Target temperature.
    pub target: f64,
    /// Coupling ratio `dt/τ ∈ (0, 1]`.
    pub dt_over_tau: f64,
}

/// A seeded [`sc_parallel::FaultPlan::storm`] schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanSpec {
    /// Storm seed.
    pub seed: u64,
    /// Scripted faults.
    pub count: u64,
    /// Crash budget within `count`.
    pub max_crashes: u64,
}

/// Which observability sinks a run should enable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObservabilitySpec {
    /// Enable the lock-free metrics registry.
    pub metrics: bool,
    /// Enable the event tracer.
    pub trace: bool,
    /// Steps between live `watch` telemetry snapshots when a subscriber
    /// does not ask for its own cadence (`0`: one snapshot per scheduler
    /// slice boundary).
    pub watch_every: u64,
    /// Flight-recorder ring capacity per trace sink, in events. `None`
    /// leaves the choice to the runner (the job service arms its default
    /// ring; standalone runs stay dark unless `trace` is set), `Some(0)`
    /// disables the ring explicitly, `Some(n)` arms `n`-event rings.
    pub ring: Option<u64>,
}

/// Checkpoint cadence for supervised / served runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSpec {
    /// Steps between checkpoints (≥ 1).
    pub every: u64,
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A field-path-tracking view over one JSON object, enforcing strictness.
struct Fields<'a> {
    prefix: String,
    fields: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    fn root(v: &'a Json) -> Result<Self, SpecError> {
        match v.as_object() {
            Some(fields) => Ok(Fields { prefix: String::new(), fields }),
            None => Err(SpecError::BadType { field: "$".into(), expected: "object" }),
        }
    }

    fn path(&self, key: &str) -> String {
        if self.prefix.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.prefix)
        }
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn required(&self, key: &str) -> Result<&'a Json, SpecError> {
        self.get(key).ok_or_else(|| SpecError::MissingField { field: self.path(key) })
    }

    fn obj(&self, key: &str) -> Result<Fields<'a>, SpecError> {
        let v = self.required(key)?;
        match v.as_object() {
            Some(fields) => Ok(Fields { prefix: self.path(key), fields }),
            None => Err(SpecError::BadType { field: self.path(key), expected: "object" }),
        }
    }

    fn str(&self, key: &str) -> Result<&'a str, SpecError> {
        self.required(key)?
            .as_str()
            .ok_or_else(|| SpecError::BadType { field: self.path(key), expected: "string" })
    }

    fn f64(&self, key: &str) -> Result<f64, SpecError> {
        self.required(key)?
            .as_f64()
            .ok_or_else(|| SpecError::BadType { field: self.path(key), expected: "number" })
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, SpecError> {
        match self.get(key) {
            None => Ok(default),
            Some(_) => self.f64(key),
        }
    }

    fn u64(&self, key: &str) -> Result<u64, SpecError> {
        let n = self.f64(key)?;
        if n.fract() != 0.0 || !(0.0..=u64::MAX as f64).contains(&n) {
            return Err(SpecError::BadType {
                field: self.path(key),
                expected: "non-negative integer",
            });
        }
        Ok(n as u64)
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, SpecError> {
        match self.get(key) {
            None => Ok(default),
            Some(_) => self.u64(key),
        }
    }

    fn bool_or(&self, key: &str, default: bool) -> Result<bool, SpecError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| SpecError::BadType { field: self.path(key), expected: "boolean" }),
        }
    }

    fn grid(&self, key: &str) -> Result<[u64; 3], SpecError> {
        let items = self
            .required(key)?
            .as_array()
            .ok_or_else(|| SpecError::BadType { field: self.path(key), expected: "array" })?;
        let dims: Vec<u64> = items
            .iter()
            .map(|v| match v.as_f64() {
                Some(n) if n.fract() == 0.0 && n >= 0.0 => Ok(n as u64),
                _ => Err(SpecError::BadType {
                    field: self.path(key),
                    expected: "array of 3 positive integers",
                }),
            })
            .collect::<Result<_, _>>()?;
        dims.try_into().map_err(|_| SpecError::BadType {
            field: self.path(key),
            expected: "array of 3 positive integers",
        })
    }

    /// Rejects any field outside `allowed` — the strictness guard.
    fn deny_unknown(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (k, _) in self.fields {
            if !allowed.contains(&k.as_str()) {
                return Err(SpecError::UnknownField { field: self.path(k) });
            }
        }
        Ok(())
    }
}

/// The largest `observability.ring` a spec may ask for: 2^20 events per
/// trace sink, which is 56 MiB of ring storage a sink (56 bytes an event).
const MAX_RING: u64 = 1 << 20;

/// The most atoms a spec's system may hold: 2^20. A run builds its whole
/// lattice or gas before the first step, so an unchecked `system.cells` or
/// `system.n` allocates without bound (`"cells": 100000` is 4·10¹⁵ LJ
/// atoms); the atom store alone is 81 bytes an atom, 85 MB at the cap. The cap admits the paper's largest silica point, 8192 ranks × 96
/// atoms = 786 432 atoms (32³ cells).
const MAX_ATOMS: u64 = 1 << 20;

fn bad(field: impl Into<String>, detail: impl Into<String>) -> SpecError {
    SpecError::BadValue { field: field.into(), detail: detail.into() }
}

impl ScenarioSpec {
    /// Loads a JSON spec from a file.
    pub fn from_path(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::from_json_str(&text)
    }

    /// Parses and validates a JSON scenario document.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        let v = Json::parse(text).map_err(|detail| SpecError::Parse { detail })?;
        Self::from_json(&v)
    }

    /// Decodes and validates a scenario from a parsed JSON value.
    pub fn from_json(v: &Json) -> Result<Self, SpecError> {
        let root = Fields::root(v)?;
        root.deny_unknown(&[
            "schema",
            "name",
            "system",
            "potential",
            "method",
            "executor",
            "dt",
            "steps",
            "subdivision",
            "resort_every",
            "thermostat",
            "fault_plan",
            "observability",
            "checkpoint",
        ])?;
        let schema = root.str("schema")?;
        if schema != SCHEMA_ID {
            return Err(SpecError::UnknownVariant {
                field: "schema".into(),
                value: schema.to_string(),
                allowed: SCHEMA_ID,
            });
        }
        let spec = ScenarioSpec {
            name: root.str("name")?.to_string(),
            system: decode_system(&root.obj("system")?)?,
            potential: decode_potential(&root.obj("potential")?)?,
            method: decode_method(&root)?,
            executor: decode_executor(&root.obj("executor")?)?,
            dt: root.f64("dt")?,
            steps: root.u64("steps")?,
            subdivision: root.u64_or("subdivision", 1)? as i32,
            resort_every: root.u64_or("resort_every", 8)?,
            thermostat: match root.get("thermostat") {
                None => None,
                Some(_) => Some(decode_thermostat(&root.obj("thermostat")?)?),
            },
            fault_plan: match root.get("fault_plan") {
                None => None,
                Some(_) => Some(decode_fault_plan(&root.obj("fault_plan")?)?),
            },
            observability: match root.get("observability") {
                None => ObservabilitySpec::default(),
                Some(_) => decode_observability(&root.obj("observability")?)?,
            },
            checkpoint: match root.get("checkpoint") {
                None => None,
                Some(_) => Some(decode_checkpoint(&root.obj("checkpoint")?)?),
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-field validity rules; every rejection names the field.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(bad("name", "must not be empty"));
        }
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err(bad("dt", format!("{} is not a positive finite timestep", self.dt)));
        }
        if self.steps == 0 {
            return Err(bad("steps", "must be at least 1"));
        }
        if !(1..=3).contains(&self.subdivision) {
            return Err(bad("subdivision", format!("{} is outside 1..=3", self.subdivision)));
        }
        match &self.system {
            SystemSpec::Lj { cells, a, temp, .. } | SystemSpec::Silica { cells, a, temp, .. } => {
                if *cells == 0 {
                    return Err(bad("system.cells", "must be at least 1"));
                }
                if !(*a > 0.0 && a.is_finite()) {
                    return Err(bad("system.a", "lattice constant must be positive and finite"));
                }
                if !(*temp >= 0.0 && temp.is_finite()) {
                    return Err(bad("system.temp", "must be finite and ≥ 0"));
                }
            }
            SystemSpec::Gas { n, box_l, temp, .. } => {
                if *n == 0 {
                    return Err(bad("system.n", "must be at least 1"));
                }
                if !(*box_l > 0.0 && box_l.is_finite()) {
                    return Err(bad("system.box", "must be positive and finite"));
                }
                if !(*temp >= 0.0 && temp.is_finite()) {
                    return Err(bad("system.temp", "must be finite and ≥ 0"));
                }
            }
            SystemSpec::Clustered { n, box_l, clusters, spread, temp, .. } => {
                if *n == 0 {
                    return Err(bad("system.n", "must be at least 1"));
                }
                if !(*box_l > 0.0 && box_l.is_finite()) {
                    return Err(bad("system.box", "must be positive and finite"));
                }
                if *clusters == 0 {
                    return Err(bad("system.clusters", "must be at least 1"));
                }
                if !(*spread > 0.0 && spread.is_finite()) {
                    return Err(bad("system.spread", "must be positive and finite"));
                }
                if !(*temp >= 0.0 && temp.is_finite()) {
                    return Err(bad("system.temp", "must be finite and ≥ 0"));
                }
            }
        }
        // Counted with checked arithmetic: `None` is past 2^64 atoms.
        let lattice =
            |cells: u64, per_cell| cells.checked_pow(3).and_then(|c| c.checked_mul(per_cell));
        let (field, atoms) = match &self.system {
            SystemSpec::Lj { cells, .. } => ("system.cells", lattice(*cells, 4)),
            SystemSpec::Silica { cells, .. } => ("system.cells", lattice(*cells, 24)),
            SystemSpec::Gas { n, .. } | SystemSpec::Clustered { n, .. } => ("system.n", Some(*n)),
        };
        if atoms.is_none_or(|atoms| atoms > MAX_ATOMS) {
            let atoms = atoms.map_or("over 2^64".to_string(), |n| n.to_string());
            return Err(bad(field, format!("{atoms} atoms exceeds the {MAX_ATOMS}-atom limit")));
        }
        // The potential must match the system's species set: Vashishta is
        // the two-species silica model; everything else is single-species
        // LJ territory.
        let silica_system = matches!(self.system, SystemSpec::Silica { .. });
        match &self.potential {
            PotentialSpec::Vashishta if !silica_system => {
                return Err(bad(
                    "potential.kind",
                    "vashishta requires the two-species silica system",
                ));
            }
            PotentialSpec::Lj { .. } if silica_system => {
                return Err(bad("potential.kind", "the silica system requires vashishta"));
            }
            PotentialSpec::Lj { cutoff } if !(*cutoff > 0.0 && cutoff.is_finite()) => {
                return Err(bad("potential.cutoff", "must be positive and finite"));
            }
            _ => {}
        }
        match &self.executor {
            ExecutorSpec::Serial { .. } => {}
            ExecutorSpec::Bsp { grid } => {
                if grid.contains(&0) {
                    return Err(bad("executor.grid", "every dimension must be at least 1"));
                }
                if grid.iter().any(|&d| d > i32::MAX as u64) {
                    let detail = format!("every dimension must be at most {}", i32::MAX);
                    return Err(bad("executor.grid", detail));
                }
                if grid.iter().try_fold(1u64, |ranks, &d| ranks.checked_mul(d)).is_none() {
                    return Err(bad("executor.grid", "the rank count overflows a 64-bit integer"));
                }
            }
        }
        let ranks: u64 = self.grid().iter().product();
        if let Some(t) = &self.thermostat {
            if !(t.target >= 0.0 && t.target.is_finite()) {
                return Err(bad("thermostat.target", "must be finite and ≥ 0"));
            }
            if !(t.dt_over_tau > 0.0 && t.dt_over_tau <= 1.0) {
                return Err(bad("thermostat.dt_over_tau", "must be in (0, 1]"));
            }
        }
        if let Some(fp) = &self.fault_plan {
            if fp.count == 0 {
                return Err(bad("fault_plan.count", "must be at least 1"));
            }
            if fp.max_crashes >= ranks {
                return Err(bad(
                    "fault_plan.max_crashes",
                    format!("{} crashes would leave no survivor of {ranks} ranks", fp.max_crashes),
                ));
            }
        }
        if let Some(ring) = self.observability.ring.filter(|&ring| ring > MAX_RING) {
            let detail = format!("{ring} events exceeds the {MAX_RING}-event (56 MiB) ring limit");
            return Err(bad("observability.ring", detail));
        }
        if let Some(cp) = &self.checkpoint {
            if cp.every == 0 {
                return Err(bad("checkpoint.every", "must be at least 1"));
            }
        }
        Ok(())
    }

    /// Renders the canonical JSON form: every default materialized, field
    /// order pinned. `parse(to_json()) == self` and the rendering is
    /// byte-stable, which the golden round-trip tests assert.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".to_string(), Json::str(SCHEMA_ID)),
            ("name".to_string(), Json::str(self.name.clone())),
            ("system".to_string(), system_json(&self.system)),
            ("potential".to_string(), potential_json(&self.potential)),
            ("method".to_string(), Json::str(method_name(self.method))),
            ("executor".to_string(), executor_json(&self.executor)),
            ("dt".to_string(), Json::num(self.dt)),
            ("steps".to_string(), Json::num(self.steps as f64)),
            ("subdivision".to_string(), Json::num(self.subdivision as f64)),
            ("resort_every".to_string(), Json::num(self.resort_every as f64)),
        ];
        if let Some(t) = &self.thermostat {
            fields.push((
                "thermostat".to_string(),
                Json::Obj(vec![
                    ("target".to_string(), Json::num(t.target)),
                    ("dt_over_tau".to_string(), Json::num(t.dt_over_tau)),
                ]),
            ));
        }
        if let Some(fp) = &self.fault_plan {
            fields.push((
                "fault_plan".to_string(),
                Json::Obj(vec![
                    ("seed".to_string(), Json::num(fp.seed as f64)),
                    ("count".to_string(), Json::num(fp.count as f64)),
                    ("max_crashes".to_string(), Json::num(fp.max_crashes as f64)),
                ]),
            ));
        }
        fields.push((
            "observability".to_string(),
            Json::Obj({
                let mut obs = vec![
                    ("metrics".to_string(), Json::Bool(self.observability.metrics)),
                    ("trace".to_string(), Json::Bool(self.observability.trace)),
                    ("watch_every".to_string(), Json::num(self.observability.watch_every as f64)),
                ];
                if let Some(ring) = self.observability.ring {
                    obs.push(("ring".to_string(), Json::num(ring as f64)));
                }
                obs
            }),
        ));
        if let Some(cp) = &self.checkpoint {
            fields.push((
                "checkpoint".to_string(),
                Json::Obj(vec![("every".to_string(), Json::num(cp.every as f64))]),
            ));
        }
        Json::Obj(fields)
    }
}

/// The `method` field's short-name mapping (matches [`Method::name`]).
pub fn method_name(m: Method) -> &'static str {
    match m {
        Method::ShiftCollapse => "sc",
        Method::FullShell => "fs",
        Method::Hybrid => "hybrid",
    }
}

fn decode_method(root: &Fields) -> Result<Method, SpecError> {
    match root.str("method")? {
        "sc" => Ok(Method::ShiftCollapse),
        "fs" => Ok(Method::FullShell),
        "hybrid" => Ok(Method::Hybrid),
        other => Err(SpecError::UnknownVariant {
            field: "method".into(),
            value: other.to_string(),
            allowed: "sc|fs|hybrid",
        }),
    }
}

fn decode_system(f: &Fields) -> Result<SystemSpec, SpecError> {
    match f.str("kind")? {
        "lj" => {
            f.deny_unknown(&["kind", "cells", "a", "temp", "seed"])?;
            Ok(SystemSpec::Lj {
                cells: f.u64("cells")?,
                a: f.f64_or("a", 1.5599)?,
                temp: f.f64_or("temp", 1.0)?,
                seed: f.u64_or("seed", 42)?,
            })
        }
        "silica" => {
            f.deny_unknown(&["kind", "cells", "a", "temp", "seed"])?;
            Ok(SystemSpec::Silica {
                cells: f.u64("cells")?,
                a: f.f64_or("a", 7.16)?,
                temp: f.f64_or("temp", 0.05)?,
                seed: f.u64_or("seed", 42)?,
            })
        }
        "gas" => {
            f.deny_unknown(&["kind", "n", "box", "temp", "seed"])?;
            Ok(SystemSpec::Gas {
                n: f.u64("n")?,
                box_l: f.f64("box")?,
                temp: f.f64_or("temp", 0.5)?,
                seed: f.u64_or("seed", 42)?,
            })
        }
        "clustered" => {
            f.deny_unknown(&["kind", "n", "box", "clusters", "spread", "temp", "seed"])?;
            Ok(SystemSpec::Clustered {
                n: f.u64("n")?,
                box_l: f.f64("box")?,
                clusters: f.u64("clusters")?,
                spread: f.f64("spread")?,
                temp: f.f64_or("temp", 0.5)?,
                seed: f.u64_or("seed", 42)?,
            })
        }
        other => Err(SpecError::UnknownVariant {
            field: f.path("kind"),
            value: other.to_string(),
            allowed: "lj|silica|gas|clustered",
        }),
    }
}

fn system_json(s: &SystemSpec) -> Json {
    match s {
        SystemSpec::Lj { cells, a, temp, seed } => Json::Obj(vec![
            ("kind".to_string(), Json::str("lj")),
            ("cells".to_string(), Json::num(*cells as f64)),
            ("a".to_string(), Json::num(*a)),
            ("temp".to_string(), Json::num(*temp)),
            ("seed".to_string(), Json::num(*seed as f64)),
        ]),
        SystemSpec::Silica { cells, a, temp, seed } => Json::Obj(vec![
            ("kind".to_string(), Json::str("silica")),
            ("cells".to_string(), Json::num(*cells as f64)),
            ("a".to_string(), Json::num(*a)),
            ("temp".to_string(), Json::num(*temp)),
            ("seed".to_string(), Json::num(*seed as f64)),
        ]),
        SystemSpec::Gas { n, box_l, temp, seed } => Json::Obj(vec![
            ("kind".to_string(), Json::str("gas")),
            ("n".to_string(), Json::num(*n as f64)),
            ("box".to_string(), Json::num(*box_l)),
            ("temp".to_string(), Json::num(*temp)),
            ("seed".to_string(), Json::num(*seed as f64)),
        ]),
        SystemSpec::Clustered { n, box_l, clusters, spread, temp, seed } => Json::Obj(vec![
            ("kind".to_string(), Json::str("clustered")),
            ("n".to_string(), Json::num(*n as f64)),
            ("box".to_string(), Json::num(*box_l)),
            ("clusters".to_string(), Json::num(*clusters as f64)),
            ("spread".to_string(), Json::num(*spread)),
            ("temp".to_string(), Json::num(*temp)),
            ("seed".to_string(), Json::num(*seed as f64)),
        ]),
    }
}

fn decode_potential(f: &Fields) -> Result<PotentialSpec, SpecError> {
    match f.str("kind")? {
        "lj" => {
            f.deny_unknown(&["kind", "cutoff"])?;
            Ok(PotentialSpec::Lj { cutoff: f.f64_or("cutoff", 2.5)? })
        }
        "vashishta" => {
            f.deny_unknown(&["kind"])?;
            Ok(PotentialSpec::Vashishta)
        }
        other => Err(SpecError::UnknownVariant {
            field: f.path("kind"),
            value: other.to_string(),
            allowed: "lj|vashishta",
        }),
    }
}

fn potential_json(p: &PotentialSpec) -> Json {
    match p {
        PotentialSpec::Lj { cutoff } => Json::Obj(vec![
            ("kind".to_string(), Json::str("lj")),
            ("cutoff".to_string(), Json::num(*cutoff)),
        ]),
        PotentialSpec::Vashishta => Json::Obj(vec![("kind".to_string(), Json::str("vashishta"))]),
    }
}

fn decode_executor(f: &Fields) -> Result<ExecutorSpec, SpecError> {
    match f.str("kind")? {
        "serial" => {
            f.deny_unknown(&["kind", "threads"])?;
            Ok(ExecutorSpec::Serial { threads: f.u64_or("threads", 0)? })
        }
        // `threaded` is another spelling of the same engine on its grid.
        "bsp" | "threaded" => {
            f.deny_unknown(&["kind", "grid"])?;
            Ok(ExecutorSpec::Bsp { grid: f.grid("grid")? })
        }
        other => Err(SpecError::UnknownVariant {
            field: f.path("kind"),
            value: other.to_string(),
            allowed: "serial|bsp|threaded",
        }),
    }
}

fn executor_json(e: &ExecutorSpec) -> Json {
    let grid_json = |g: &[u64; 3]| Json::Arr(g.iter().map(|&d| Json::num(d as f64)).collect());
    match e {
        ExecutorSpec::Serial { threads } => Json::Obj(vec![
            ("kind".to_string(), Json::str("serial")),
            ("threads".to_string(), Json::num(*threads as f64)),
        ]),
        ExecutorSpec::Bsp { grid } => Json::Obj(vec![
            ("kind".to_string(), Json::str("bsp")),
            ("grid".to_string(), grid_json(grid)),
        ]),
    }
}

fn decode_thermostat(f: &Fields) -> Result<ThermostatSpec, SpecError> {
    f.deny_unknown(&["target", "dt_over_tau"])?;
    Ok(ThermostatSpec { target: f.f64("target")?, dt_over_tau: f.f64("dt_over_tau")? })
}

fn decode_fault_plan(f: &Fields) -> Result<FaultPlanSpec, SpecError> {
    f.deny_unknown(&["seed", "count", "max_crashes"])?;
    Ok(FaultPlanSpec {
        seed: f.u64("seed")?,
        count: f.u64("count")?,
        max_crashes: f.u64_or("max_crashes", 0)?,
    })
}

fn decode_observability(f: &Fields) -> Result<ObservabilitySpec, SpecError> {
    f.deny_unknown(&["metrics", "trace", "watch_every", "ring"])?;
    Ok(ObservabilitySpec {
        metrics: f.bool_or("metrics", false)?,
        trace: f.bool_or("trace", false)?,
        watch_every: f.u64_or("watch_every", 0)?,
        ring: match f.get("ring") {
            None => None,
            Some(_) => Some(f.u64("ring")?),
        },
    })
}

fn decode_checkpoint(f: &Fields) -> Result<CheckpointSpec, SpecError> {
    f.deny_unknown(&["every"])?;
    Ok(CheckpointSpec { every: f.u64("every")? })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lj_spec_json() -> String {
        r#"{
            "schema": "sc-scenario/1",
            "name": "lj-melt",
            "system": {"kind": "lj", "cells": 6, "temp": 1.0, "seed": 42},
            "potential": {"kind": "lj", "cutoff": 2.5},
            "method": "sc",
            "executor": {"kind": "serial"},
            "dt": 0.002,
            "steps": 100
        }"#
        .to_string()
    }

    #[test]
    fn decodes_with_defaults_materialized() {
        let spec = ScenarioSpec::from_json_str(&lj_spec_json()).unwrap();
        assert_eq!(spec.name, "lj-melt");
        assert_eq!(spec.method, Method::ShiftCollapse);
        assert_eq!(spec.subdivision, 1);
        assert_eq!(spec.resort_every, 8);
        assert!(spec.thermostat.is_none() && spec.fault_plan.is_none());
        assert!(!spec.observability.metrics);
        match spec.system {
            SystemSpec::Lj { cells, a, .. } => {
                assert_eq!(cells, 6);
                assert_eq!(a, 1.5599);
            }
            other => panic!("wrong system {other:?}"),
        }
    }

    #[test]
    fn canonical_round_trip_is_stable() {
        let spec = ScenarioSpec::from_json_str(&lj_spec_json()).unwrap();
        let canonical = spec.to_json().to_string();
        let again = ScenarioSpec::from_json_str(&canonical).unwrap();
        assert_eq!(again, spec);
        assert_eq!(again.to_json().to_string(), canonical);
    }

    #[test]
    fn a_document_that_is_not_json_is_a_typed_parse_error() {
        // What a `.toml` file handed to `--spec` now gets.
        let e = ScenarioSpec::from_json_str("schema = \"sc-scenario/1\"\n").unwrap_err();
        assert!(matches!(e, SpecError::Parse { .. }), "{e:?}");
        assert!(e.to_string().starts_with("invalid json:"), "{e}");
    }

    #[test]
    fn unknown_top_level_field_is_rejected() {
        let doc = lj_spec_json().replace("\"steps\": 100", "\"steps\": 100, \"stepss\": 1");
        match ScenarioSpec::from_json_str(&doc) {
            Err(SpecError::UnknownField { field }) => assert_eq!(field, "stepss"),
            other => panic!("expected UnknownField, got {other:?}"),
        }
    }

    #[test]
    fn nested_errors_carry_dotted_paths() {
        let doc = lj_spec_json().replace("\"cells\": 6", "\"cells\": 6.5");
        match ScenarioSpec::from_json_str(&doc) {
            Err(SpecError::BadType { field, .. }) => assert_eq!(field, "system.cells"),
            other => panic!("expected BadType, got {other:?}"),
        }
        let doc = lj_spec_json().replace("\"kind\": \"lj\", \"cells\"", "\"cells\"");
        match ScenarioSpec::from_json_str(&doc) {
            Err(SpecError::MissingField { field }) => assert_eq!(field, "system.kind"),
            other => panic!("expected MissingField, got {other:?}"),
        }
    }

    #[test]
    fn cross_field_rules_reject_mismatches() {
        // Vashishta on an LJ system.
        let doc =
            lj_spec_json().replace(r#"{"kind": "lj", "cutoff": 2.5}"#, r#"{"kind": "vashishta"}"#);
        match ScenarioSpec::from_json_str(&doc) {
            Err(SpecError::BadValue { field, .. }) => assert_eq!(field, "potential.kind"),
            other => panic!("expected BadValue, got {other:?}"),
        }
        // A thermostat coupling beyond instantaneous, on any executor.
        let doc = lj_spec_json().replace(
            r#""executor": {"kind": "serial"}"#,
            r#""executor": {"kind": "bsp", "grid": [2, 1, 1]}, "thermostat": {"target": 1.0, "dt_over_tau": 2.0}"#,
        );
        match ScenarioSpec::from_json_str(&doc) {
            Err(SpecError::BadValue { field, .. }) => assert_eq!(field, "thermostat.dt_over_tau"),
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn bad_schema_id_is_an_unknown_variant() {
        let doc = lj_spec_json().replace("sc-scenario/1", "sc-scenario/9");
        match ScenarioSpec::from_json_str(&doc) {
            Err(SpecError::UnknownVariant { field, .. }) => assert_eq!(field, "schema"),
            other => panic!("expected UnknownVariant, got {other:?}"),
        }
    }

    /// Every count that sizes an allocation is capped and refused by name
    /// before anything is built: the trace ring, the rank grid, and the
    /// system's atoms (4·cells³ LJ, 24·cells³ silica, `n` for the gases,
    /// with a cell count whose cube overflows 64 bits among them).
    #[test]
    fn oversized_rings_and_grids_are_rejected_by_name() {
        let steps = r#""steps": 100"#;
        let ring = |n: &str| {
            lj_spec_json().replace(steps, &format!(r#"{steps}, "observability": {{"ring": {n}}}"#))
        };
        let grid = |g: &str| {
            let bsp = format!(r#"{{"kind": "bsp", "grid": {g}}}"#);
            lj_spec_json().replace(r#"{"kind": "serial"}"#, &bsp)
        };
        let storm = |g: &str| {
            grid(g).replace(steps, r#""steps": 100, "fault_plan": {"seed": 1, "count": 1}"#)
        };
        let system = |json: &str| {
            let potential = match json.contains("silica") {
                true => r#"{"kind": "vashishta"}"#,
                false => r#"{"kind": "lj", "cutoff": 2.5}"#,
            };
            lj_spec_json()
                .replace(r#"{"kind": "lj", "cells": 6, "temp": 1.0, "seed": 42}"#, json)
                .replace(r#"{"kind": "lj", "cutoff": 2.5}"#, potential)
        };
        let (ring_field, grid_field) = (Some("observability.ring"), Some("executor.grid"));
        let (cells, n) = (Some("system.cells"), Some("system.n"));
        for (doc, rejected) in [
            (ring("1e15"), ring_field),
            (ring("1048577"), ring_field),
            // The largest ring, and the default one the benchmark arms.
            (ring("1048576"), None),
            (ring("16384"), None),
            // Dimensions that `as i32` would wrap.
            (grid("[4294967297, 1, 1]"), grid_field),
            (grid("[1, 2147483648, 1]"), grid_field),
            // Dimensions that fit, with a rank count that overflows u64,
            // with and without the fault plan that checks its crash budget
            // against it.
            (grid("[4194304, 4194304, 4194304]"), grid_field),
            (grid("[2147483647, 2147483647, 5]"), grid_field),
            (storm("[4194304, 4194304, 4194304]"), grid_field),
            // The largest dimension and the largest rank count pass
            // validation (the engine's setup decides whether they fit).
            (grid("[2147483647, 1, 1]"), None),
            (grid("[2147483647, 2147483647, 4]"), None),
            (storm("[2147483647, 2147483647, 4]"), None),
            // Over the atom cap, a cube past 2^64 included; the cap itself
            // and the paper's 786 432-atom silica point (32³ cells) pass.
            (system(r#"{"kind": "lj", "cells": 100000}"#), cells),
            (system(r#"{"kind": "lj", "cells": 65}"#), cells),
            (system(r#"{"kind": "lj", "cells": 3000000}"#), cells),
            (system(r#"{"kind": "silica", "cells": 36}"#), cells),
            (system(r#"{"kind": "gas", "n": 1048577, "box": 10.0}"#), n),
            (
                system(r#"{"kind": "clustered", "n": 1e15, "box": 9, "clusters": 2, "spread": 1}"#),
                n,
            ),
            (system(r#"{"kind": "lj", "cells": 64}"#), None),
            (system(r#"{"kind": "silica", "cells": 32}"#), None),
            (system(r#"{"kind": "gas", "n": 1048576, "box": 10.0}"#), None),
        ] {
            let field = match ScenarioSpec::from_json_str(&doc) {
                Err(SpecError::BadValue { field, .. }) => Some(field),
                Ok(_) => None,
                Err(other) => panic!("expected BadValue, got {other:?}"),
            };
            assert_eq!(field.as_deref(), rejected, "{doc}");
        }
    }
}
