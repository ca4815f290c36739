//! Digests of deterministic outputs, for the output checks.

use bsor_sim::SimReport;

/// 64-bit FNV-1a over the values written into it.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes a float in, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes a string in, length first.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Mixes every field of a simulation report in.
    pub fn report(&mut self, r: &SimReport) {
        for v in [
            r.cycles,
            r.measured_cycles,
            r.generated_packets,
            r.delivered_packets,
            r.delivered_flits,
            u64::from(r.deadlocked),
        ] {
            self.u64(v);
        }
        for f in &r.per_flow {
            for v in [
                f.generated,
                f.delivered,
                f.latency_sum,
                f.latency_count,
                f.latency_max,
            ] {
                self.u64(v);
            }
        }
        for &flits in &r.link_flits {
            self.u64(flits);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Hash of one serve response with its wall-clock `elapsed_ms` field
/// removed, so equal answers hash equal whatever they cost.
pub fn response_hash(response: &str) -> u64 {
    const FIELD: &str = "\"elapsed_ms\":";
    let mut d = Digest::default();
    match response.find(FIELD) {
        Some(at) => {
            let rest = &response[at + FIELD.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            d.bytes(&response.as_bytes()[..at]);
            d.bytes(&rest.as_bytes()[end..]);
        }
        None => d.bytes(response.as_bytes()),
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_hash_ignores_only_the_elapsed_time() {
        let a = r#"{"ok":true,"result":{"plan":"ab","elapsed_ms":1.25}}"#;
        let b = r#"{"ok":true,"result":{"plan":"ab","elapsed_ms":0.5}}"#;
        let c = r#"{"ok":true,"result":{"plan":"ac","elapsed_ms":1.25}}"#;
        assert_eq!(response_hash(a), response_hash(b));
        assert_ne!(response_hash(a), response_hash(c));
    }
}
