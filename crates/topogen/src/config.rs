//! Generator configuration.

use asregistry::RirRegion;
use serde::{Deserialize, Serialize};

/// Per-region scalar knob (indexed in [`RirRegion::ALL`] order:
/// AF, AP, AR, L, R).
pub type PerRegion = [f64; 5];

/// Returns the entry of a [`PerRegion`] array for `region`.
#[must_use]
pub fn per_region(values: &PerRegion, region: RirRegion) -> f64 {
    let idx = RirRegion::ALL
        .iter()
        .position(|r| *r == region)
        .expect("RirRegion::ALL is exhaustive");
    values[idx]
}

/// Full generator configuration. `Default` produces the paper-scale scenario
/// used by the experiment harness (≈12k ASes, ≈45k links).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// RNG seed; every run with the same config is bit-identical.
    pub seed: u64,

    // ---- population sizes -------------------------------------------------
    /// Number of Tier-1 (clique) ASes. The first 12 use well-known ASNs.
    pub n_tier1: usize,
    /// Number of transit ASes below the clique.
    pub n_transit: usize,
    /// Number of stub ASes.
    pub n_stub: usize,
    /// Number of hypergiants (large content networks).
    pub n_hypergiant: usize,
    /// Number of special stubs (anycast DNS / research / cloud / CDN) that
    /// peer directly with Tier-1s.
    pub n_special_stub: usize,

    // ---- regional structure ----------------------------------------------
    /// Share of transit+stub ASes per region (AF, AP, AR, L, R order).
    pub region_weights: PerRegion,
    /// Probability that a 16-bit pool is exhausted for a new AS in the region,
    /// i.e. the AS receives a 32-bit ASN (AF, AP, AR, L, R order).
    pub four_byte_asn_prob: PerRegion,
    /// Probability that a customer picks a provider outside its own region.
    pub cross_region_provider_prob: f64,
    /// Number of IXP-style peering meshes per region (AF, AP, AR, L, R order).
    pub ixps_per_region: [usize; 5],
    /// Mean number of peering partners an IXP member picks at one IXP
    /// (AF, AP, AR, L, R order). LACNIC and RIPE are dense.
    pub ixp_peering_degree: PerRegion,
    /// Fraction of IXP members that are stubs (the rest are transits).
    pub ixp_stub_share: f64,
    /// Fraction of ASNs later transferred to a different RIR (delegation-file
    /// refinement exercises the §5 mapping).
    pub transfer_prob: f64,

    // ---- hierarchy shape ---------------------------------------------------
    /// Fraction of transit ASes that are "large" (directly below the clique).
    pub large_transit_share: f64,
    /// Probability that a stub connects directly to a Tier-1 as a customer.
    pub stub_direct_t1_prob: f64,
    /// Probability that each provider slot of a small transit goes directly
    /// to a Tier-1.
    pub transit_direct_t1_prob: f64,
    /// Preferential-attachment damping exponent (1.0 = classic Barabási;
    /// lower spreads customers across providers). Tier-1s must end up with
    /// the highest transit degrees, as in the real Internet.
    pub pa_exponent: f64,
    /// Mean provider count for stubs (≥1; multihoming).
    pub stub_mean_providers: f64,
    /// Mean provider count for small transit ASes.
    pub transit_mean_providers: f64,

    // ---- hypergiants -------------------------------------------------------
    /// Mean number of *other* large transits a large transit peers with
    /// globally (private interconnects between regional carriers).
    pub large_transit_peering: f64,
    /// Mean number of global peerings for smaller transit ASes.
    pub small_transit_peering: f64,
    /// Mean number of transit ASes a hypergiant peers with.
    pub hypergiant_transit_peers: f64,
    /// Mean number of stubs a hypergiant peers with.
    pub hypergiant_stub_peers: f64,
    /// Probability a hypergiant peers with any given Tier-1.
    pub hypergiant_t1_peer_prob: f64,

    // ---- complex relationships (§4.2 / §6.1) -------------------------------
    /// Fraction of the Cogent-like Tier-1's transit customers on a
    /// partial-transit contract (scoped export, `174:990`-style tagging).
    pub cogent_partial_transit_share: f64,
    /// Same for the other Tier-1s (much rarer).
    pub t1_partial_transit_share: f64,
    /// Extra partial-transit probability for cross-region P2C links whose
    /// customer is in LACNIC (the `AR-L` degradation mechanism).
    pub lacnic_partial_transit_share: f64,
    /// Fraction of transit-transit peering links that are per-PoP hybrid.
    pub hybrid_link_share: f64,
    /// Fraction of ASes that belong to a multi-AS organisation.
    pub sibling_as_share: f64,

    // ---- validation-source behaviour ---------------------------------------
    /// Probability that an AS documents its BGP communities publicly
    /// (AF, AP, AR, L, R order). This is the root cause of coverage bias.
    pub publish_prob_region: PerRegion,
    /// Absolute publication probability for Tier-1s (region-independent:
    /// every Tier-1 runs a documented NOC).
    pub publish_prob_tier1: f64,
    /// Multiplier for transit ASes with at least
    /// [`TopologyConfig::publish_large_customer_threshold`] customers —
    /// big carriers run documented NOCs.
    pub publish_mult_large_transit: f64,
    /// Multiplier for smaller transit ASes.
    pub publish_mult_transit: f64,
    /// Multiplier for stubs.
    pub publish_mult_stub: f64,
    /// Multiplier for hypergiants.
    pub publish_mult_hypergiant: f64,
    /// Customer-count threshold separating large from small transits for
    /// publication purposes.
    pub publish_large_customer_threshold: usize,

    // ---- vantage points -----------------------------------------------------
    /// Number of collector-peer vantage points.
    pub n_vantage_points: usize,
    /// Share of vantage points per region (AF, AP, AR, L, R order) —
    /// collector infrastructure is R/AR-heavy in reality.
    pub vp_region_weights: PerRegion,
    /// Fraction of VPs that are stubs rather than transits.
    pub vp_stub_share: f64,
    /// Number of hypergiants peering with the collector (Google, Cloudflare
    /// etc. feed RouteViews in reality).
    pub vp_hypergiants: usize,
    /// Fraction of VPs whose collector session is 16-bit-only (`AS_TRANS`
    /// artefact source).
    pub vp_two_byte_share: f64,
    /// Fraction of VPs that export full tables (the rest export partial
    /// feeds: only customer routes).
    pub vp_full_feed_share: f64,

    // ---- misc ---------------------------------------------------------------
    /// Mean number of prefixes an AS originates.
    pub mean_prefixes_per_as: f64,
    /// Mean number of prefixes a *transit* AS originates (transits hold more
    /// address space and engineer it per prefix).
    pub transit_mean_prefixes: f64,
    /// Probability that a multihomed AS pins one of its prefixes to a single
    /// provider (per-prefix traffic engineering). This is what exposes each
    /// provider link of a multihomed AS on collector-visible best paths.
    pub te_pin_prob: f64,
    /// Probability that a LACNIC AS uses heavy path prepending (Marcos et al.
    /// report strong regional differences).
    pub lacnic_prepend_prob: f64,
    /// Baseline prepending probability elsewhere.
    pub base_prepend_prob: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 2018,

            n_tier1: 12,
            n_transit: 1700,
            n_stub: 9200,
            n_hypergiant: 12,
            n_special_stub: 22,

            //                 AF     AP     AR     L      R
            region_weights: [0.06, 0.16, 0.18, 0.16, 0.44],
            four_byte_asn_prob: [0.50, 0.35, 0.10, 0.60, 0.45],
            cross_region_provider_prob: 0.13,
            ixps_per_region: [1, 3, 4, 4, 9],
            ixp_peering_degree: [5.0, 8.0, 9.0, 13.0, 11.0],
            ixp_stub_share: 0.45,
            transfer_prob: 0.012,

            large_transit_share: 0.16,
            stub_direct_t1_prob: 0.26,
            transit_direct_t1_prob: 0.45,
            pa_exponent: 0.6,
            stub_mean_providers: 1.6,
            transit_mean_providers: 2.1,

            large_transit_peering: 7.0,
            small_transit_peering: 0.9,
            hypergiant_transit_peers: 95.0,
            hypergiant_stub_peers: 40.0,
            hypergiant_t1_peer_prob: 0.10,

            cogent_partial_transit_share: 0.25,
            t1_partial_transit_share: 0.015,
            lacnic_partial_transit_share: 0.13,
            hybrid_link_share: 0.03,
            sibling_as_share: 0.035,

            //                    AF     AP     AR     L       R
            publish_prob_region: [0.04, 0.08, 0.70, 0.006, 0.27],
            publish_prob_tier1: 0.85,
            publish_mult_large_transit: 0.50,
            publish_mult_transit: 0.08,
            publish_mult_stub: 0.04,
            publish_mult_hypergiant: 0.50,
            publish_large_customer_threshold: 10,

            n_vantage_points: 240,
            //                  AF     AP     AR     L      R
            vp_region_weights: [0.02, 0.10, 0.33, 0.03, 0.52],
            vp_stub_share: 0.22,
            vp_hypergiants: 2,
            vp_two_byte_share: 0.08,
            vp_full_feed_share: 0.75,

            mean_prefixes_per_as: 1.0,
            transit_mean_prefixes: 3.0,
            te_pin_prob: 0.65,
            lacnic_prepend_prob: 0.45,
            base_prepend_prob: 0.12,
        }
    }
}

impl TopologyConfig {
    /// A small configuration for unit/integration tests (≈1.3k ASes); keeps
    /// every mechanism active but runs in milliseconds.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        TopologyConfig {
            seed,
            n_tier1: 8,
            n_transit: 220,
            n_stub: 1000,
            n_hypergiant: 6,
            n_special_stub: 10,
            ixps_per_region: [1, 1, 2, 2, 3],
            n_vantage_points: 60,
            ..TopologyConfig::default()
        }
    }

    /// A scale-tier configuration with `total` ASes (10k in bgpsim's
    /// bounded-propagation test). Keeps the default mechanism knobs; only the
    /// population scales: ~15 % transits, the rest stubs. Per-region ASN
    /// *extension* pools absorb populations beyond the base registry pools.
    #[must_use]
    pub fn scaled(total: usize, seed: u64) -> Self {
        let n_tier1 = 16;
        let n_hypergiant = 15;
        let n_special_stub = 30;
        let fixed = n_tier1 + n_hypergiant + n_special_stub;
        let n_transit = (((total.saturating_sub(fixed)) as f64) * 0.15).round() as usize;
        let n_stub = total.saturating_sub(fixed + n_transit);
        TopologyConfig {
            seed,
            n_tier1,
            n_transit,
            n_stub,
            n_hypergiant,
            n_special_stub,
            n_vantage_points: 300,
            ..TopologyConfig::default()
        }
    }

    /// Total AS count implied by the population knobs.
    #[must_use]
    pub fn total_ases(&self) -> usize {
        self.n_tier1 + self.n_transit + self.n_stub + self.n_hypergiant + self.n_special_stub
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_scale() {
        let c = TopologyConfig::default();
        assert!(c.total_ases() > 10_000);
        assert!((c.region_weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((c.vp_region_weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_region_indexing() {
        let v: PerRegion = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(per_region(&v, RirRegion::Afrinic), 1.0);
        assert_eq!(per_region(&v, RirRegion::Apnic), 2.0);
        assert_eq!(per_region(&v, RirRegion::Arin), 3.0);
        assert_eq!(per_region(&v, RirRegion::Lacnic), 4.0);
        assert_eq!(per_region(&v, RirRegion::RipeNcc), 5.0);
    }

    #[test]
    fn small_config_is_smaller() {
        assert!(TopologyConfig::small(1).total_ases() < TopologyConfig::default().total_ases());
    }

    #[test]
    fn scaled_config_hits_requested_total() {
        for total in [10_000usize, 100_000, 1_000_000] {
            let c = TopologyConfig::scaled(total, 1);
            assert_eq!(c.total_ases(), total);
            assert!(c.n_stub > c.n_transit);
        }
    }
}
