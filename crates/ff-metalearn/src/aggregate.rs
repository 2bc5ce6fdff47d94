//! Server-side meta-feature aggregation (Table 1's "Aggregation Method"
//! column).
//!
//! The server receives one [`ClientMetaFeatures`] per client and produces
//! the fixed-length global vector the meta-model consumes: per-feature
//! summaries (sum/avg/min/max/stddev as the table specifies), the entropy
//! of the stationarity flags across clients, and the KL divergence among
//! client value distributions.

use crate::features::ClientMetaFeatures;
use ff_timeseries::stats::{self, Summary};

/// The aggregated, fixed-length global meta-feature vector with names.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalMetaFeatures {
    values: Vec<f64>,
}

fn push_summary(
    names: &mut Vec<String>,
    values: &mut Vec<f64>,
    name: &str,
    s: &Summary,
    with_sum: bool,
) {
    if with_sum {
        names.push(format!("{name}_sum"));
        values.push(s.sum);
    }
    names.push(format!("{name}_avg"));
    values.push(s.mean);
    names.push(format!("{name}_min"));
    values.push(s.min);
    names.push(format!("{name}_max"));
    values.push(s.max);
    names.push(format!("{name}_std"));
    values.push(s.std);
}

impl GlobalMetaFeatures {
    /// Aggregates client meta-features per Table 1.
    ///
    /// # Panics
    /// Panics on an empty client list.
    pub fn aggregate(clients: &[ClientMetaFeatures]) -> GlobalMetaFeatures {
        assert!(!clients.is_empty(), "need at least one client");
        let mut names = Vec::new();
        let mut values = Vec::new();

        // No. of Clients — NA aggregation.
        names.push("n_clients".into());
        values.push(clients.len() as f64);
        // Sampling Rate — NA (shared across clients; take the first).
        names.push("sampling_step_secs".into());
        values.push(clients[0].sampling_step_secs);

        let collect =
            |f: fn(&ClientMetaFeatures) -> f64| -> Vec<f64> { clients.iter().map(f).collect() };

        // No. of Instances — Sum, Avg, Min, Max, Stddev.
        let s = stats::summary(&collect(|c| c.n_instances));
        push_summary(&mut names, &mut values, "n_instances", &s, true);
        // Target Missing Values % — Avg, Min, Max, Stddev.
        let s = stats::summary(&collect(|c| c.missing_fraction));
        push_summary(&mut names, &mut values, "missing_fraction", &s, false);
        // Stationary Features (ADF statistic of the raw target).
        let s = stats::summary(&collect(|c| c.adf_statistic));
        push_summary(&mut names, &mut values, "adf_stat", &s, false);
        // Target Stationarity — Entropy across clients.
        let flags: Vec<bool> = clients.iter().map(|c| c.stationary).collect();
        names.push("stationarity_entropy".into());
        values.push(stats::binary_entropy(&flags));
        names.push("stationary_fraction".into());
        values.push(flags.iter().filter(|&&f| f).count() as f64 / flags.len() as f64);
        // Stationary Features after 1st / 2nd order diff.
        let s = stats::summary(&collect(|c| c.adf_statistic_diff1));
        push_summary(&mut names, &mut values, "adf_stat_diff1", &s, false);
        let s = stats::summary(&collect(|c| c.adf_statistic_diff2));
        push_summary(&mut names, &mut values, "adf_stat_diff2", &s, false);
        // Significant Lags using pACF.
        let s = stats::summary(&collect(|c| c.n_significant_lags));
        push_summary(&mut names, &mut values, "n_sig_lags", &s, false);
        let s = stats::summary(&collect(|c| c.max_significant_lag));
        push_summary(&mut names, &mut values, "max_sig_lag", &s, false);
        // Insignificant lags between 1st and last significant ones.
        let s = stats::summary(&collect(|c| c.insignificant_gap));
        push_summary(&mut names, &mut values, "insig_gap", &s, false);
        // Detected seasonality components.
        let s = stats::summary(&collect(|c| c.n_seasonal_components));
        push_summary(&mut names, &mut values, "n_seasonal", &s, false);
        // Skewness / Kurtosis.
        let s = stats::summary(&collect(|c| c.skewness));
        push_summary(&mut names, &mut values, "skewness", &s, false);
        let s = stats::summary(&collect(|c| c.kurtosis));
        push_summary(&mut names, &mut values, "kurtosis", &s, false);
        // Fractal dimension — Avg only.
        names.push("fractal_dim_avg".into());
        values.push(stats::summary(&collect(|c| c.fractal_dimension)).mean);
        // Periods of seasonality components — Min, Max.
        names.push("season_period_min".into());
        let min_periods: Vec<f64> = clients
            .iter()
            .map(|c| c.min_period)
            .filter(|&p| p > 0.0)
            .collect();
        values.push(if min_periods.is_empty() {
            0.0
        } else {
            min_periods.iter().cloned().fold(f64::INFINITY, f64::min)
        });
        names.push("season_period_max".into());
        values.push(
            clients
                .iter()
                .map(|c| c.dominant_period)
                .fold(0.0f64, f64::max),
        );
        // KL divergence among clients' distributions — Avg, Min, Max, Stddev.
        let kls = cross_client_kl(clients);
        let s = stats::summary(&kls);
        push_summary(&mut names, &mut values, "client_kl", &s, false);

        debug_assert_eq!(names.len(), values.len());
        debug_assert_eq!(names, Self::feature_names());
        GlobalMetaFeatures { values }
    }

    /// The aggregated vector.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Names of the vector entries, in order. Length equals
    /// [`GlobalMetaFeatures::dim`].
    pub fn feature_names() -> Vec<String> {
        // Build once from a synthetic singleton aggregation is circular;
        // enumerate explicitly instead.
        let mut names: Vec<String> = vec!["n_clients".into(), "sampling_step_secs".into()];
        let summary5 = |n: &str| -> Vec<String> {
            vec![
                format!("{n}_sum"),
                format!("{n}_avg"),
                format!("{n}_min"),
                format!("{n}_max"),
                format!("{n}_std"),
            ]
        };
        let summary4 = |n: &str| -> Vec<String> {
            vec![
                format!("{n}_avg"),
                format!("{n}_min"),
                format!("{n}_max"),
                format!("{n}_std"),
            ]
        };
        names.extend(summary5("n_instances"));
        names.extend(summary4("missing_fraction"));
        names.extend(summary4("adf_stat"));
        names.push("stationarity_entropy".into());
        names.push("stationary_fraction".into());
        names.extend(summary4("adf_stat_diff1"));
        names.extend(summary4("adf_stat_diff2"));
        names.extend(summary4("n_sig_lags"));
        names.extend(summary4("max_sig_lag"));
        names.extend(summary4("insig_gap"));
        names.extend(summary4("n_seasonal"));
        names.extend(summary4("skewness"));
        names.extend(summary4("kurtosis"));
        names.push("fractal_dim_avg".into());
        names.push("season_period_min".into());
        names.push("season_period_max".into());
        names.extend(summary4("client_kl"));
        names
    }

    /// Dimension of the global vector.
    pub fn dim() -> usize {
        Self::feature_names().len()
    }

    /// Named accessor (linear scan; fine at this dimensionality).
    pub fn get(&self, name: &str) -> Option<f64> {
        Self::feature_names()
            .iter()
            .position(|n| n == name)
            .map(|i| self.values[i])
    }
}

/// Pairwise KL divergences between client histograms, re-binned onto the
/// union support so the comparison is meaningful.
fn cross_client_kl(clients: &[ClientMetaFeatures]) -> Vec<f64> {
    if clients.len() < 2 {
        return vec![0.0];
    }
    // Histograms were built on per-client ranges; approximate re-binning by
    // comparing the probability vectors directly when ranges are close, or
    // smoothing otherwise. (The per-client range is part of the feature
    // struct, so a full re-bin would need raw data — which the server does
    // not have. Comparing bin shapes is the privacy-preserving stand-in.)
    let mut out = Vec::new();
    for (i, a) in clients.iter().enumerate() {
        for (j, b) in clients.iter().enumerate() {
            if i != j {
                out.push(stats::kl_divergence(&a.histogram, &b.histogram, 1e-9));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec};
    use ff_timeseries::TimeSeries;

    fn client(seed: u64) -> ClientMetaFeatures {
        let s = generate(
            &SynthesisSpec {
                n: 500,
                seasons: vec![SeasonSpec {
                    period: 12.0,
                    amplitude: 2.0,
                }],
                ..Default::default()
            },
            seed,
        );
        ClientMetaFeatures::extract(&s)
    }

    #[test]
    fn names_match_aggregation_output() {
        let clients = [client(1), client(2), client(3)];
        let g = GlobalMetaFeatures::aggregate(&clients);
        assert_eq!(g.values().len(), GlobalMetaFeatures::dim());
        assert_eq!(g.get("n_clients"), Some(3.0));
    }

    #[test]
    fn summaries_are_consistent() {
        let clients = [client(1), client(2)];
        let g = GlobalMetaFeatures::aggregate(&clients);
        let avg = g.get("n_instances_avg").unwrap();
        let mn = g.get("n_instances_min").unwrap();
        let mx = g.get("n_instances_max").unwrap();
        assert!(mn <= avg && avg <= mx);
        assert_eq!(g.get("n_instances_sum"), Some(1000.0));
    }

    #[test]
    fn identical_clients_have_zero_kl_and_entropy() {
        let c = client(5);
        let clients = vec![c.clone(), c.clone(), c];
        let g = GlobalMetaFeatures::aggregate(&clients);
        assert!(g.get("client_kl_avg").unwrap() < 1e-9);
        assert!(g.get("stationarity_entropy").unwrap() < 1e-12);
    }

    #[test]
    fn heterogeneous_clients_have_positive_kl() {
        let a = ClientMetaFeatures::extract(&generate(
            &SynthesisSpec {
                n: 500,
                level: 0.0,
                ..Default::default()
            },
            7,
        ));
        // Skewed client: exponential-ish values via squaring.
        let raw = generate(
            &SynthesisSpec {
                n: 500,
                level: 0.0,
                ..Default::default()
            },
            8,
        );
        let squared: Vec<f64> = raw.values().iter().map(|v| v * v).collect();
        let b = ClientMetaFeatures::extract(&TimeSeries::with_regular_index(0, 86_400, squared));
        let g = GlobalMetaFeatures::aggregate(&[a, b]);
        assert!(g.get("client_kl_avg").unwrap() > 0.01);
    }

    #[test]
    fn mixed_stationarity_has_max_entropy() {
        let mut a = client(1);
        let mut b = client(2);
        a.stationary = true;
        b.stationary = false;
        let g = GlobalMetaFeatures::aggregate(&[a, b]);
        assert!((g.get("stationarity_entropy").unwrap() - 2f64.ln()).abs() < 1e-12);
        assert_eq!(g.get("stationary_fraction"), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_client_list_panics() {
        GlobalMetaFeatures::aggregate(&[]);
    }
}
