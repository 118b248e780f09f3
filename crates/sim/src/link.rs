//! Link-layer flow control and retry.
//!
//! The HMC link protocol flow-controls the transmitter with *tokens*
//! (one per FLIT of receiver input buffer, returned through the RTC
//! field as the receiver drains) and recovers from transmission
//! errors with a *retry* mechanism driven by the FRP/RRP retry
//! pointers and IRTRY flow packets. HMC-Sim 1.0 carried the packet
//! fields; this module models the protocol behaviour:
//!
//! * **Tokens** — a send consumes the packet's FLIT count; tokens
//!   return when the crossbar hands the packet to its vault (the
//!   input buffer slot frees). With the default unlimited pool the
//!   layer is inert, preserving the paper's queue-structural results
//!   ("no simulation perturbation", §IV-A).
//! * **Retry** — an injected transmission error keeps the packet in
//!   the transmitter's retry buffer instead of delivering it; after
//!   `retry_latency` cycles (the IRTRY/StartRetry exchange) the
//!   packet replays. Errors are injected deterministically every
//!   `error_period`-th packet so tests are reproducible.

/// Link-layer configuration (per link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Input-buffer tokens in FLITs. `None` = unlimited (default:
    /// flow control inert, the paper's configuration).
    pub tokens: Option<u32>,
    /// Inject a transmission error on every Nth packet (`None` =
    /// error-free link).
    pub error_period: Option<u64>,
    /// Cycles consumed by the retry exchange before the packet
    /// replays.
    pub retry_latency: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { tokens: None, error_period: None, retry_latency: 8 }
    }
}

/// Per-link protocol statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted by the link layer.
    pub packets_sent: u64,
    /// FLITs accepted by the link layer (the bandwidth unit — the
    /// telemetry time series reads this for per-window link
    /// throughput).
    pub flits_sent: u64,
    /// Sends rejected for lack of tokens.
    pub token_stalls: u64,
    /// Transmission errors injected (and recovered).
    pub retries: u64,
    /// Corrupted packets caught by the receive-path CRC-32K check.
    pub crc_errors: u64,
    /// Token returns that would have pushed the pool past its
    /// configured size. The pool is still clamped (a protocol
    /// violation must not cascade into free tokens), but the event is
    /// counted so the sanitizer can surface it instead of the clamp
    /// silently masking a reverse token leak.
    pub token_overflows: u64,
}

crate::stats::counter_table!(LinkStats {
    packets_sent,
    flits_sent,
    token_stalls,
    retries,
    crc_errors,
    token_overflows,
});

/// The link layer's acceptance record for one transmitted packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendGrant {
    /// An injected transmission error: the packet must go through the
    /// retry path instead of being delivered.
    pub errored: bool,
    /// The SEQ value assigned to this packet's tail. A retry replays
    /// the packet with this SEQ intact (spec behaviour) — the retry
    /// path never consumes a fresh sequence number.
    pub seq: u8,
}

/// The transmitter-side state of one link.
#[derive(Debug, Clone)]
pub struct LinkControl {
    config: LinkConfig,
    tokens_available: u32,
    packet_counter: u64,
    /// Sequence counter carried in the tail SEQ field.
    seq: u8,
    /// Protocol statistics.
    pub stats: LinkStats,
}

impl LinkControl {
    /// Creates the link state for a configuration.
    pub fn new(config: LinkConfig) -> Self {
        LinkControl {
            tokens_available: config.tokens.unwrap_or(u32::MAX),
            config,
            packet_counter: 0,
            seq: 0,
            stats: LinkStats::default(),
        }
    }

    /// Tokens currently available to the transmitter.
    pub fn tokens_available(&self) -> u32 {
        self.tokens_available
    }

    /// Whether a packet of `flits` can be accepted right now.
    pub fn can_send(&self, flits: u32) -> bool {
        self.tokens_available >= flits
    }

    /// Accounts for a packet entering the link. Returns `Err(())`
    /// when the transmitter is out of tokens (the caller surfaces
    /// `HMC_STALL`), otherwise the [`SendGrant`] carrying the injected
    /// error decision and the SEQ assigned to the packet's tail. A
    /// token stall consumes no SEQ: the packet never entered the link.
    #[allow(clippy::result_unit_err)] // Err carries no data: the caller maps it to HMC_STALL
    pub fn send(&mut self, flits: u32) -> Result<SendGrant, ()> {
        if !self.can_send(flits) {
            self.stats.token_stalls += 1;
            return Err(());
        }
        self.tokens_available -= flits;
        self.packet_counter += 1;
        self.stats.packets_sent += 1;
        self.stats.flits_sent += flits as u64;
        self.seq = (self.seq + 1) & 0x7;
        let errored = self
            .config
            .error_period
            .is_some_and(|n| n > 0 && self.packet_counter.is_multiple_of(n));
        if errored {
            self.stats.retries += 1;
        }
        Ok(SendGrant { errored, seq: self.seq })
    }

    /// The SEQ assigned to the most recently accepted packet.
    pub fn seq(&self) -> u8 {
        self.seq
    }

    /// Returns tokens as the receiver drains `flits` of input buffer
    /// (the RTC return path). An over-return past the configured pool
    /// size is a protocol violation: the pool is clamped and the event
    /// counted in [`LinkStats::token_overflows`] for the sanitizer.
    pub fn return_tokens(&mut self, flits: u32) {
        let cap = self.config.tokens.unwrap_or(u32::MAX);
        let sum = self.tokens_available.saturating_add(flits);
        if sum > cap {
            self.stats.token_overflows += 1;
        }
        self.tokens_available = sum.min(cap);
    }

    /// Forces the token count (sanitizer recovery only: repairs a
    /// pool left inconsistent by a detected over- or under-return).
    pub(crate) fn force_tokens(&mut self, tokens: u32) {
        self.tokens_available = tokens;
    }

    /// The retry delay for an injected error.
    pub fn retry_latency(&self) -> u64 {
        self.config.retry_latency
    }

    /// The link configuration this state was created with.
    pub fn config(&self) -> LinkConfig {
        self.config
    }

    /// Packets accepted since creation (the error-injection phase
    /// counter — distinct from `stats.packets_sent` only in intent).
    pub fn packet_counter(&self) -> u64 {
        self.packet_counter
    }

    /// Rebuilds link state from checkpointed parts (token pool, error
    /// phase, SEQ and statistics all restored verbatim).
    pub(crate) fn from_parts(
        config: LinkConfig,
        tokens_available: u32,
        packet_counter: u64,
        seq: u8,
        stats: LinkStats,
    ) -> Self {
        LinkControl { config, tokens_available, packet_counter, seq, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_tokens_never_stall() {
        let mut link = LinkControl::new(LinkConfig::default());
        for _ in 0..1000 {
            assert!(!link.send(17).unwrap().errored);
        }
        assert_eq!(link.stats.token_stalls, 0);
        assert_eq!(link.stats.packets_sent, 1000);
    }

    #[test]
    fn token_pool_depletes_and_refills() {
        let mut link = LinkControl::new(LinkConfig {
            tokens: Some(10),
            ..Default::default()
        });
        assert!(!link.send(4).unwrap().errored);
        assert!(!link.send(4).unwrap().errored);
        assert!(!link.can_send(4));
        assert_eq!(link.send(4), Err(()));
        assert_eq!(link.stats.token_stalls, 1);
        link.return_tokens(4);
        assert!(!link.send(4).unwrap().errored);
        assert_eq!(link.tokens_available(), 2);
        assert_eq!(link.stats.token_overflows, 0, "legal return is not an overflow");
    }

    #[test]
    fn token_over_return_clamps_and_is_counted() {
        let mut link = LinkControl::new(LinkConfig {
            tokens: Some(10),
            ..Default::default()
        });
        // An over-return past the pool size still clamps (the old
        // saturating behaviour) but is now counted as the protocol
        // violation it is instead of being silently masked.
        link.return_tokens(1000);
        assert_eq!(link.tokens_available(), 10);
        assert_eq!(link.stats.token_overflows, 1);

        // A legal return after draining does not count.
        link.send(4).unwrap();
        link.return_tokens(4);
        assert_eq!(link.tokens_available(), 10);
        assert_eq!(link.stats.token_overflows, 1);
    }

    #[test]
    fn deterministic_error_injection() {
        let mut link = LinkControl::new(LinkConfig {
            error_period: Some(3),
            ..Default::default()
        });
        let outcomes: Vec<bool> = (0..9).map(|_| link.send(2).unwrap().errored).collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(link.stats.retries, 3);
    }

    #[test]
    fn seq_wraps_at_three_bits() {
        let mut link = LinkControl::new(LinkConfig::default());
        for _ in 0..9 {
            link.send(1).unwrap();
        }
        assert_eq!(link.seq(), 1, "9 mod 8");
    }

    #[test]
    fn errored_sends_keep_their_assigned_seq() {
        // Packet n gets SEQ n & 7 whether or not the transmission
        // errors: the grant pins the SEQ at first transmission so the
        // retry path replays the packet with the original SEQ instead
        // of consuming a fresh one.
        let mut link = LinkControl::new(LinkConfig {
            error_period: Some(3),
            ..Default::default()
        });
        let grants: Vec<SendGrant> = (0..5).map(|_| link.send(1).unwrap()).collect();
        let seqs: Vec<u8> = grants.iter().map(|g| g.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5], "consecutive SEQs, errored or not");
        assert!(grants[2].errored, "third packet errors under period 3");
        assert_eq!(grants[2].seq, 3, "the errored packet owns SEQ 3 for its replay");
        assert_eq!(link.seq(), 5, "no extra SEQ is burned by the retry path");
    }
}
