//! FNV-1a fingerprints: the outcome digest every `BENCH_*.json` record and
//! digest pin uses, and the byte-wise hash behind snapshot spec
//! fingerprints and checkpoint checksums.

use crate::job::JobOutcome;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte-wise FNV-1a (64-bit).
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Stable fingerprint of a scheduling result: FNV-1a over every outcome's
/// `(id, start, end, preemptions)`, one 64-bit word per field, in slice
/// order. Rendered as 16 lowercase hex digits.
pub fn outcome_digest(outcomes: &[JobOutcome]) -> String {
    let h = outcomes
        .iter()
        .flat_map(|o| [o.id, o.start as u64, o.end as u64, o.preemptions as u64])
        .fold(FNV_OFFSET, |h, v| (h ^ v).wrapping_mul(FNV_PRIME));
    format!("{h:016x}")
}

/// [`outcome_digest`] after sorting `outcomes` by job id — the canonical
/// order for comparing runs whose outcomes drain in different orders.
pub fn sorted_outcome_digest(outcomes: &mut [JobOutcome]) -> String {
    outcomes.sort_by_key(|o| o.id);
    outcome_digest(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, start: i64, end: i64, preemptions: u32) -> JobOutcome {
        JobOutcome {
            id,
            vc: 0,
            gpus: 1,
            submit: 0,
            start,
            end,
            duration: end - start,
            preemptions,
        }
    }

    #[test]
    fn known_answers() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(outcome_digest(&[]), "cbf29ce484222325");
        let mut pair = [outcome(2, 30, 300, 1), outcome(1, 0, 60, 0)];
        assert_eq!(sorted_outcome_digest(&mut pair), "acc3e2922b2c152f");
        assert_eq!(outcome_digest(&pair), "acc3e2922b2c152f");
    }
}
