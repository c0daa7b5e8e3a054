//! Whole-system configuration: everything an operator tunes, serializable
//! to a single JSON file.

use serde::{Deserialize, Serialize};

use crate::drl::DrlConfig;

/// Top-level Geomancy configuration (engine + policy knobs).
///
/// # Examples
///
/// ```
/// use geomancy_core::config::GeomancyConfig;
///
/// let mut config = GeomancyConfig::default();
/// config.policy.exploration = 0.2;
/// config.validate()?;
/// let _policy = config.build_policy()?;
/// # Ok::<(), geomancy_core::config::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeomancyConfig {
    /// DRL engine settings.
    pub engine: EngineSection,
    /// Placement-policy settings.
    pub policy: PolicySection,
}

/// Engine subsection (mirrors [`DrlConfig`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSection {
    /// Table I model number (1–11; the live engine needs a dense model).
    pub model: u8,
    /// Most recent accesses pulled per device for a retrain.
    pub train_window: usize,
    /// Epochs per fit.
    pub epochs: usize,
    /// Peak SGD learning rate of a fit's cosine schedule.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Moving-average smoothing window for targets.
    pub smoothing_window: usize,
    /// Apply the §V-G prediction adjustment.
    pub adjust_predictions: bool,
    /// Model throughput in log space.
    pub log_targets: bool,
    /// Weight-initialization seed.
    pub seed: u64,
}

/// Policy subsection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySection {
    /// Probability a decision round performs a random movement.
    pub exploration: f64,
    /// Most files moved per decision.
    pub max_moves: usize,
    /// Minimum predicted relative gain before a move is worthwhile.
    pub min_gain: f64,
    /// Decision rounds a file rests after being moved.
    pub cooldown_rounds: u64,
    /// Recompute the layout every this many workload runs.
    pub move_every_runs: usize,
}

impl Default for GeomancyConfig {
    fn default() -> Self {
        let drl = DrlConfig::default();
        GeomancyConfig {
            engine: EngineSection {
                model: drl.model,
                train_window: drl.train_window,
                epochs: drl.epochs,
                learning_rate: drl.learning_rate,
                batch_size: drl.batch_size,
                smoothing_window: drl.smoothing_window,
                adjust_predictions: drl.adjust_predictions,
                log_targets: drl.log_targets,
                seed: drl.seed,
            },
            policy: PolicySection {
                exploration: 0.1,
                max_moves: 14,
                min_gain: 0.02,
                cooldown_rounds: 2,
                move_every_runs: 5,
            },
        }
    }
}

/// A configuration problem found by [`GeomancyConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl GeomancyConfig {
    /// Converts the engine section to a [`DrlConfig`].
    pub fn drl_config(&self) -> DrlConfig {
        DrlConfig {
            model: self.engine.model,
            train_window: self.engine.train_window,
            epochs: self.engine.epochs,
            learning_rate: self.engine.learning_rate,
            batch_size: self.engine.batch_size,
            smoothing_window: self.engine.smoothing_window,
            timesteps: 8,
            adjust_predictions: self.engine.adjust_predictions,
            log_targets: self.engine.log_targets,
            seed: self.engine.seed,
        }
    }

    /// Builds the configured dynamic policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if validation fails.
    pub fn build_policy(&self) -> Result<crate::policy::GeomancyDynamic, ConfigError> {
        self.validate()?;
        Ok(
            crate::policy::GeomancyDynamic::with_config(self.drl_config(), self.policy.exploration)
                .with_move_cap(self.policy.max_moves)
                .with_min_gain(self.policy.min_gain)
                .with_cooldown(self.policy.cooldown_rounds),
        )
    }

    /// Checks every field for sanity.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let e = &self.engine;
        let p = &self.policy;
        if !(1..=11).contains(&e.model) {
            return Err(ConfigError(format!(
                "engine.model must be a dense Table I model (1-11), got {}",
                e.model
            )));
        }
        if e.train_window == 0 || e.epochs == 0 || e.batch_size == 0 || e.smoothing_window == 0 {
            return Err(ConfigError(
                "engine windows, epochs, and batch size must be non-zero".into(),
            ));
        }
        if !(e.learning_rate > 0.0 && e.learning_rate.is_finite()) {
            return Err(ConfigError(format!(
                "engine.learning_rate must be positive, got {}",
                e.learning_rate
            )));
        }
        if !(0.0..=1.0).contains(&p.exploration) {
            return Err(ConfigError(format!(
                "policy.exploration must be in [0, 1], got {}",
                p.exploration
            )));
        }
        if p.max_moves == 0 || p.move_every_runs == 0 {
            return Err(ConfigError(
                "policy.max_moves and move_every_runs must be non-zero".into(),
            ));
        }
        if p.min_gain < 0.0 {
            return Err(ConfigError(format!(
                "policy.min_gain must be non-negative, got {}",
                p.min_gain
            )));
        }
        Ok(())
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Loads from a file.
    ///
    /// # Errors
    ///
    /// Wraps read and parse failures as I/O errors.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Saves to a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if writing fails.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().expect("config is always serializable"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_buildable() {
        let config = GeomancyConfig::default();
        config.validate().unwrap();
        let _policy = config.build_policy().unwrap();
    }

    #[test]
    fn json_round_trip() {
        let config = GeomancyConfig::default();
        let restored = GeomancyConfig::from_json(&config.to_json().unwrap()).unwrap();
        assert_eq!(restored, config);
    }

    #[test]
    fn recurrent_model_rejected() {
        let mut config = GeomancyConfig::default();
        config.engine.model = 12;
        let err = config.validate().unwrap_err();
        assert!(err.to_string().contains("dense"));
    }

    #[test]
    fn bad_exploration_rejected() {
        let mut config = GeomancyConfig::default();
        config.policy.exploration = 1.5;
        assert!(config.validate().is_err());
        assert!(config.build_policy().is_err());
    }

    #[test]
    fn zero_learning_rate_rejected() {
        let mut config = GeomancyConfig::default();
        config.engine.learning_rate = 0.0;
        assert!(config.validate().is_err());
    }

    #[test]
    fn file_round_trip() {
        let config = GeomancyConfig::default();
        let dir = std::env::temp_dir().join("geomancy_config_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("geomancy.json");
        config.save(&path).unwrap();
        assert_eq!(GeomancyConfig::load(&path).unwrap(), config);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drl_config_mirrors_engine_section() {
        let config = GeomancyConfig::default();
        let drl = config.drl_config();
        assert_eq!(drl.model, config.engine.model);
        assert_eq!(drl.train_window, config.engine.train_window);
        assert_eq!(drl.epochs, config.engine.epochs);
    }
}
