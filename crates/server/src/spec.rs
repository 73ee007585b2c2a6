//! What one daemon session simulates, as a small declarative spec.
//!
//! The spec is the unit of provenance: it travels in `create` frames,
//! is persisted into the session's [`ring_snapshot::SessionManifest`],
//! and is rebuilt from that manifest after a `kill -9` so the daemon
//! can re-admit every session it was running — the machine config and
//! workload derive from the spec deterministically, and the snapshot
//! header hashes verify the derivation matches the state on disk.

use std::collections::BTreeMap;
use std::fmt;

use ring_coherence::ProtocolVariant;
use ring_noc::{FaultPlan, FaultProfile};
use ring_system::{MachineConfig, MachineConfigError};
use ring_workloads::AppProfile;

use crate::json::{obj, Json};

/// Why a spec cannot be built or parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// `variant` is not one of the five evaluated protocols.
    UnknownVariant(String),
    /// `workload` names no application profile.
    UnknownWorkload(String),
    /// A field is present but has the wrong type or an illegal value.
    BadField(&'static str),
    /// The derived machine configuration fails validation.
    Machine(MachineConfigError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownVariant(v) => {
                let names: Vec<&str> = ProtocolVariant::ALL.iter().map(|p| p.name()).collect();
                write!(
                    f,
                    "unknown protocol variant `{v}` (expected one of {})",
                    names.join(", ")
                )
            }
            SpecError::UnknownWorkload(w) => write!(f, "unknown workload profile `{w}`"),
            SpecError::BadField(name) => write!(f, "spec field `{name}` is malformed"),
            SpecError::Machine(e) => write!(f, "derived machine config invalid: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Declarative description of one simulated session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Protocol variant wire name (`uncorq`, `eager`, …).
    pub variant: String,
    /// Workload profile name (`fmm`, …).
    pub workload: String,
    /// Ops per core ([`AppProfile::scaled`]).
    pub scale: u64,
    /// Torus width.
    pub width: usize,
    /// Torus height.
    pub height: usize,
    /// Machine seed.
    pub seed: u64,
    /// Simulated-cycle cap.
    pub max_cycles: u64,
    /// Forward-progress watchdog threshold in cycles (0 = off).
    pub watchdog_cycles: u64,
    /// Inject the lossless chaos fault profile (jitter/reorder/dup).
    pub chaos: bool,
    /// Test knob: the worker panics once when the session first reaches
    /// this cycle, so supervision drills are deterministic. A marker
    /// file makes it once per session directory, not once per worker.
    pub inject_panic_at: Option<u64>,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            variant: "uncorq".to_string(),
            workload: "fmm".to_string(),
            scale: 120,
            width: 4,
            height: 4,
            seed: 2007,
            max_cycles: 50_000_000,
            watchdog_cycles: 2_000_000,
            chaos: false,
            inject_panic_at: None,
        }
    }
}

impl SessionSpec {
    /// Parses the `spec` object of a `create` frame. Absent fields take
    /// the defaults; present fields must be well-typed.
    pub fn from_json(v: &Json) -> Result<SessionSpec, SpecError> {
        let mut spec = SessionSpec::default();
        let d = SessionSpec::default();
        let get_u64 = |key, dflt, field: &'static str| -> Result<u64, SpecError> {
            match v.get(key) {
                None => Ok(dflt),
                Some(j) => j.as_u64().ok_or(SpecError::BadField(field)),
            }
        };
        if let Some(j) = v.get("variant") {
            spec.variant = j
                .as_str()
                .ok_or(SpecError::BadField("variant"))?
                .to_string();
        }
        if let Some(j) = v.get("workload") {
            spec.workload = j
                .as_str()
                .ok_or(SpecError::BadField("workload"))?
                .to_string();
        }
        spec.scale = get_u64("scale", d.scale, "scale")?;
        spec.width = get_u64("width", d.width as u64, "width")? as usize;
        spec.height = get_u64("height", d.height as u64, "height")? as usize;
        spec.seed = get_u64("seed", d.seed, "seed")?;
        spec.max_cycles = get_u64("max_cycles", d.max_cycles, "max_cycles")?;
        spec.watchdog_cycles = get_u64("watchdog_cycles", d.watchdog_cycles, "watchdog_cycles")?;
        if let Some(j) = v.get("chaos") {
            spec.chaos = j.as_bool().ok_or(SpecError::BadField("chaos"))?;
        }
        if let Some(j) = v.get("inject_panic_at") {
            spec.inject_panic_at = Some(j.as_u64().ok_or(SpecError::BadField("inject_panic_at"))?);
        }
        // Fail unknown names at parse time so `create` rejects up front.
        spec.resolve()?;
        Ok(spec)
    }

    /// Renders the spec as a JSON object (the `create` frame body).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("variant", Json::Str(self.variant.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("scale", Json::Num(self.scale as f64)),
            ("width", Json::Num(self.width as f64)),
            ("height", Json::Num(self.height as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("max_cycles", Json::Num(self.max_cycles as f64)),
            ("watchdog_cycles", Json::Num(self.watchdog_cycles as f64)),
            ("chaos", Json::Bool(self.chaos)),
        ];
        if let Some(c) = self.inject_panic_at {
            fields.push(("inject_panic_at", Json::Num(c as f64)));
        }
        obj(fields)
    }

    /// Serializes into manifest string fields, for post-crash session
    /// rediscovery.
    pub fn to_fields(&self) -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("variant".to_string(), self.variant.clone());
        m.insert("workload".to_string(), self.workload.clone());
        m.insert("scale".to_string(), self.scale.to_string());
        m.insert("width".to_string(), self.width.to_string());
        m.insert("height".to_string(), self.height.to_string());
        m.insert("seed".to_string(), self.seed.to_string());
        m.insert("max_cycles".to_string(), self.max_cycles.to_string());
        m.insert(
            "watchdog_cycles".to_string(),
            self.watchdog_cycles.to_string(),
        );
        m.insert("chaos".to_string(), self.chaos.to_string());
        if let Some(c) = self.inject_panic_at {
            m.insert("inject_panic_at".to_string(), c.to_string());
        }
        m
    }

    /// Rebuilds a spec from manifest fields ([`SessionSpec::to_fields`]
    /// inverse); absent fields take the defaults, malformed ones are
    /// typed errors.
    pub fn from_fields(fields: &BTreeMap<String, String>) -> Result<SessionSpec, SpecError> {
        let mut spec = SessionSpec::default();
        let parse_u64 = |key, dflt, field: &'static str| -> Result<u64, SpecError> {
            match fields.get(key) {
                None => Ok(dflt),
                Some(s) => s.parse::<u64>().map_err(|_| SpecError::BadField(field)),
            }
        };
        if let Some(v) = fields.get("variant") {
            spec.variant = v.clone();
        }
        if let Some(w) = fields.get("workload") {
            spec.workload = w.clone();
        }
        let d = SessionSpec::default();
        spec.scale = parse_u64("scale", d.scale, "scale")?;
        spec.width = parse_u64("width", d.width as u64, "width")? as usize;
        spec.height = parse_u64("height", d.height as u64, "height")? as usize;
        spec.seed = parse_u64("seed", d.seed, "seed")?;
        spec.max_cycles = parse_u64("max_cycles", d.max_cycles, "max_cycles")?;
        spec.watchdog_cycles = parse_u64("watchdog_cycles", d.watchdog_cycles, "watchdog_cycles")?;
        if let Some(c) = fields.get("chaos") {
            spec.chaos = c
                .parse::<bool>()
                .map_err(|_| SpecError::BadField("chaos"))?;
        }
        if let Some(c) = fields.get("inject_panic_at") {
            spec.inject_panic_at = Some(
                c.parse::<u64>()
                    .map_err(|_| SpecError::BadField("inject_panic_at"))?,
            );
        }
        spec.resolve()?;
        Ok(spec)
    }

    /// Resolves the variant and workload names to their typed forms.
    fn resolve(&self) -> Result<(ProtocolVariant, AppProfile), SpecError> {
        let variant = ProtocolVariant::by_name(&self.variant)
            .ok_or_else(|| SpecError::UnknownVariant(self.variant.clone()))?;
        let profile = AppProfile::by_name(&self.workload)
            .ok_or_else(|| SpecError::UnknownWorkload(self.workload.clone()))?;
        Ok((variant, profile))
    }

    /// Derives the validated machine configuration and workload profile.
    ///
    /// # Errors
    ///
    /// Unknown names and invalid derived configs, each typed.
    pub fn build(&self) -> Result<(MachineConfig, AppProfile), SpecError> {
        let (variant, profile) = self.resolve()?;
        let mut cfg = MachineConfig::with_protocol(variant.config());
        cfg.width = self.width;
        cfg.height = self.height;
        cfg.seed = self.seed;
        cfg.max_cycles = self.max_cycles;
        cfg.watchdog_cycles = self.watchdog_cycles;
        if self.chaos {
            cfg.faults = Some(FaultPlan::new(FaultProfile::chaos(), self.seed));
        }
        cfg.validate().map_err(SpecError::Machine)?;
        Ok((cfg, profile.scaled(self.scale)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_builds_a_16_node_machine() {
        let (cfg, profile) = SessionSpec::default().build().unwrap();
        assert_eq!(cfg.nodes(), 16);
        assert_eq!(profile.ops_per_core, 120);
        assert_eq!(cfg.watchdog_cycles, 2_000_000);
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let spec = SessionSpec {
            variant: "uncorq-pref".into(),
            chaos: true,
            inject_panic_at: Some(40_000),
            scale: 99,
            ..SessionSpec::default()
        };
        let back = SessionSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn manifest_fields_roundtrip() {
        let spec = SessionSpec {
            variant: "eager".into(),
            seed: 7,
            inject_panic_at: Some(1),
            ..SessionSpec::default()
        };
        let back = SessionSpec::from_fields(&spec.to_fields()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_names_are_typed() {
        let mut bad = SessionSpec {
            variant: "warp".into(),
            ..SessionSpec::default()
        };
        assert!(matches!(bad.build(), Err(SpecError::UnknownVariant(_))));
        bad.variant = "uncorq".into();
        bad.workload = "nosuchapp".into();
        assert!(matches!(bad.build(), Err(SpecError::UnknownWorkload(_))));
    }

    #[test]
    fn every_variant_the_error_lists_parses() {
        let msg = SpecError::UnknownVariant("warp".into()).to_string();
        let list = msg
            .split_once("(expected one of ")
            .and_then(|(_, rest)| rest.strip_suffix(')'))
            .expect("the message lists the accepted names");
        let names: Vec<&str> = list.split(", ").collect();
        assert_eq!(names.len(), ProtocolVariant::ALL.len());
        for name in names {
            assert!(
                ProtocolVariant::by_name(name).is_some(),
                "listed name `{name}` does not parse"
            );
        }
    }

    #[test]
    fn invalid_geometry_is_a_machine_error() {
        let bad = SessionSpec {
            width: 1,
            ..SessionSpec::default()
        };
        assert!(matches!(
            bad.build(),
            Err(SpecError::Machine(MachineConfigError::TorusTooSmall))
        ));
    }

    #[test]
    fn malformed_json_fields_are_typed() {
        let v = Json::parse(r#"{"scale":"lots"}"#).unwrap();
        assert_eq!(
            SessionSpec::from_json(&v),
            Err(SpecError::BadField("scale"))
        );
    }
}
