//! Job-name similarity: Levenshtein distance \[53\] and the bucketization the
//! QSSF feature pipeline uses to turn "extremely sparse and high-dimensional"
//! job names into dense numeric categories (§4.2.2).

use std::collections::HashMap;

/// Levenshtein edit distance.
///
/// Runs Myers' bit-parallel kernel when both strings are ASCII and the
/// shorter one is at most 64 bytes — the common case for job names — and
/// the two-row DP otherwise. Both give the same distance.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match Pattern::new(short) {
        Some(p) if long.is_ascii() => p.distance(long.as_bytes()),
        _ => levenshtein_dp(a, b),
    }
}

/// Levenshtein edit distance by the two-row DP, O(min(a,b)) memory, over
/// chars. The fallback for inputs the bit-parallel kernel cannot take.
fn levenshtein_dp(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // Keep the shorter string in the inner loop.
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// An ASCII string of at most 64 bytes, prepared for Myers' bit-vector
/// edit distance (Myers, JACM 1999, in Hyyrö's formulation): bit `i` of
/// `peq[c]` is set when the string's byte `i` is `c`. Each byte of the
/// other string then advances a whole DP column in a handful of word ops.
struct Pattern {
    peq: [u64; 128],
    len: usize,
}

impl Pattern {
    /// `None` unless `s` is ASCII and at most 64 bytes long.
    fn new(s: &str) -> Option<Pattern> {
        if !s.is_ascii() || s.len() > 64 {
            return None;
        }
        let mut peq = [0u64; 128];
        for (i, c) in s.bytes().enumerate() {
            peq[usize::from(c)] |= 1 << i;
        }
        Some(Pattern { peq, len: s.len() })
    }

    /// Edit distance between the pattern and the ASCII bytes `text`.
    fn distance(&self, text: &[u8]) -> usize {
        debug_assert!(text.is_ascii());
        if self.len == 0 {
            return text.len();
        }
        let last = 1u64 << (self.len - 1);
        // Vertical deltas of the current column: +1 bits in `pv`, -1 in
        // `mv`. Column 0 is 0, 1, .., len, so every delta starts at +1.
        let mut pv = !0u64;
        let mut mv = 0u64;
        let mut score = self.len;
        for &c in text {
            let eq = self.peq[usize::from(c & 0x7f)];
            let xv = eq | mv;
            let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & last != 0 {
                score += 1;
            } else if mh & last != 0 {
                score -= 1;
            }
            // Row 0 is 0, 1, .., n: its horizontal delta is always +1.
            let ph = (ph << 1) | 1;
            let mh = mh << 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        score
    }
}

/// `lev / max_len`, with two empty strings at distance 0. Every
/// similarity test in this crate compares this exact expression against
/// its threshold.
fn ratio(lev: usize, max_len: usize) -> f64 {
    if max_len == 0 {
        return 0.0;
    }
    lev as f64 / max_len as f64
}

/// Levenshtein distance normalized by the longer length, in \[0, 1\].
pub fn normalized_distance(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    ratio(levenshtein(a, b), max_len)
}

/// A name prepared once for distance queries against many others: its
/// char length and, when it qualifies, its bit-parallel pattern.
pub(crate) struct Query<'a> {
    text: &'a str,
    chars: usize,
    pattern: Option<Pattern>,
}

impl<'a> Query<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Query {
            text,
            chars: text.chars().count(),
            pattern: Pattern::new(text),
        }
    }

    /// [`levenshtein`] to `other`.
    fn distance(&self, other: &str) -> usize {
        match &self.pattern {
            Some(p) if other.is_ascii() => p.distance(other.as_bytes()),
            _ => levenshtein(self.text, other),
        }
    }

    /// [`normalized_distance`] to `other`.
    pub(crate) fn normalized_distance(&self, other: &str) -> f64 {
        let max_len = self.chars.max(other.chars().count());
        ratio(self.distance(other), max_len)
    }
}

/// Strip trailing run/sweep decorations (`_12`, `_run3`, `_lr5`) so
/// resubmissions of the same experiment normalize to a common stem.
pub fn strip_run_suffix(name: &str) -> &str {
    let mut s = name;
    loop {
        let Some(pos) = s.rfind('_') else {
            return s;
        };
        let tail = &s[pos + 1..];
        let is_decoration = !tail.is_empty()
            && (tail.chars().all(|c| c.is_ascii_digit())
                || (tail.starts_with("run") && tail[3..].chars().all(|c| c.is_ascii_digit()))
                || (tail.starts_with("lr") && tail[2..].chars().all(|c| c.is_ascii_digit())));
        if is_decoration {
            s = &s[..pos];
        } else {
            return s;
        }
    }
}

/// Incremental name bucketizer: names whose stems are within
/// `max_distance` (normalized Levenshtein) of a bucket representative share
/// that bucket id.
#[derive(Debug, Clone)]
pub struct NameBuckets {
    max_distance: f64,
    representatives: Vec<Representative>,
    cache: HashMap<String, u32>,
}

/// A bucket's first stem, with its char length counted once.
#[derive(Debug, Clone)]
struct Representative {
    stem: Box<str>,
    chars: usize,
}

impl NameBuckets {
    /// Create a bucketizer with the given normalized-distance threshold
    /// (the paper clusters "similar" names; 0.25 works well for
    /// sweep-style suffixes).
    pub fn new(max_distance: f64) -> Self {
        assert!((0.0..=1.0).contains(&max_distance));
        NameBuckets {
            max_distance,
            representatives: Vec::new(),
            cache: HashMap::new(),
        }
    }

    /// Bucket id for a job name (creates a new bucket when nothing is
    /// similar enough). Deterministic in insertion order. Cache hits are
    /// allocation-free.
    pub fn bucket(&mut self, name: &str) -> u32 {
        let stem = strip_run_suffix(name);
        if let Some(&id) = self.cache.get(stem) {
            return id;
        }
        // Linear scan over representatives; short-circuit on length bounds
        // (|len(a) - len(b)| <= d * max_len is necessary for a match).
        let query = Query::new(stem);
        let found = self.representatives.iter().position(|rep| {
            let max_len = rep.chars.max(query.chars);
            if rep.chars.abs_diff(query.chars) as f64 > self.max_distance * max_len as f64 {
                return false;
            }
            ratio(query.distance(&rep.stem), max_len) <= self.max_distance
        });
        let id = match found {
            Some(id) => id as u32,
            None => {
                self.representatives.push(Representative {
                    stem: stem.into(),
                    chars: query.chars,
                });
                (self.representatives.len() - 1) as u32
            }
        };
        self.cache.insert(stem.to_string(), id);
        id
    }

    /// Number of buckets created so far.
    pub fn num_buckets(&self) -> usize {
        self.representatives.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn classic_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn distance_properties() {
        let words = ["train_resnet50", "train_resnet18", "eval_bert", ""];
        for a in words {
            for b in words {
                // Symmetry.
                assert_eq!(levenshtein(a, b), levenshtein(b, a));
                // Identity.
                if a == b {
                    assert_eq!(levenshtein(a, b), 0);
                }
                // Triangle inequality against every third word.
                for c in words {
                    assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
                }
            }
        }
    }

    /// A random string of `len` chars: ASCII from a small alphabet (so
    /// matches are common, and with both ends of the ASCII range), or with
    /// some non-ASCII chars mixed in.
    fn random_string(rng: &mut ChaCha12Rng, len: usize, ascii: bool) -> String {
        const ASCII: &[u8] = b"ab_c01Z\0\x7f";
        const WIDE: [char; 4] = ['é', 'ß', '日', 'a'];
        (0..len)
            .map(|_| {
                if ascii || rng.gen::<f64>() < 0.5 {
                    char::from(ASCII[rng.gen_range(0..ASCII.len())])
                } else {
                    WIDE[rng.gen_range(0..WIDE.len())]
                }
            })
            .collect()
    }

    #[test]
    fn bit_parallel_kernel_matches_the_dp() {
        let mut rng = ChaCha12Rng::seed_from_u64(53);
        for case in 0..4_000 {
            let ascii = case % 4 != 0;
            let (la, lb) = match case % 3 {
                // Both sides near the 64-byte boundary.
                0 => (rng.gen_range(60..=68usize), rng.gen_range(60..=68usize)),
                1 => (rng.gen_range(0..=130usize), rng.gen_range(0..=130usize)),
                // Near-equal lengths, where distances are small.
                _ => {
                    let la = rng.gen_range(0..=130usize);
                    (la, la.saturating_sub(rng.gen_range(0..=3usize)))
                }
            };
            let a = random_string(&mut rng, la, ascii);
            let b = random_string(&mut rng, lb, ascii || case % 2 == 0);
            let want = levenshtein_dp(&a, &b);
            assert_eq!(levenshtein(&a, &b), want, "{a:?} vs {b:?}");
            assert_eq!(levenshtein(&b, &a), want, "{b:?} vs {a:?}");
            assert_eq!(Query::new(&a).distance(&b), want);
            assert_eq!(
                Query::new(&a).normalized_distance(&b).to_bits(),
                normalized_distance(&a, &b).to_bits()
            );
        }
    }

    #[test]
    fn bit_parallel_kernel_edges() {
        let long = "x".repeat(64);
        let longer = "y".repeat(65);
        for (a, b) in [
            ("", ""),
            ("", "abc"),
            ("a", ""),
            (long.as_str(), ""),
            (long.as_str(), long.as_str()),
            (long.as_str(), longer.as_str()),
            ("é", ""),
            ("é", "e"),
            ("naïve", "naive"),
            ("日本語", "日本"),
        ] {
            assert_eq!(levenshtein(a, b), levenshtein_dp(a, b), "{a:?} vs {b:?}");
        }
        assert!(Pattern::new(&long).is_some());
        assert!(Pattern::new(&longer).is_none());
        assert!(Pattern::new("é").is_none());
        assert_eq!(Pattern::new("").map(|p| p.distance(b"abcd")), Some(4));
    }

    /// The bucketizer as it was before the bit-parallel kernel: a char DP
    /// per comparison, lengths recounted each time.
    fn reference_buckets(names: &[String], max_distance: f64) -> Vec<u32> {
        let mut reps: Vec<String> = Vec::new();
        let mut ids = Vec::new();
        for name in names {
            let stem = strip_run_suffix(name);
            let stem_len = stem.chars().count();
            let found = reps.iter().position(|rep| {
                let rep_len = rep.chars().count();
                let max_len = rep_len.max(stem_len);
                if (rep_len as i64 - stem_len as i64).unsigned_abs() as f64
                    > max_distance * max_len as f64
                {
                    return false;
                }
                let d = if max_len == 0 {
                    0.0
                } else {
                    levenshtein_dp(stem, rep) as f64 / max_len as f64
                };
                d <= max_distance
            });
            ids.push(found.unwrap_or_else(|| {
                reps.push(stem.to_string());
                reps.len() - 1
            }) as u32);
        }
        ids
    }

    #[test]
    fn buckets_match_the_dp_reference_on_saturn_templates() {
        use helios_trace::{generate, profile_for, ClusterId, GeneratorConfig};
        let cfg = GeneratorConfig {
            scale: 0.1,
            seed: 2020,
        };
        let trace = generate(&profile_for(ClusterId::Saturn), &cfg).unwrap();
        // Each template's first job in the QSSF training window (every
        // month but the last), in submission order.
        let (train_end, _) = trace.calendar.month_range(trace.calendar.num_months() - 1);
        let mut seen = HashMap::new();
        let names: Vec<String> = trace
            .gpu_jobs()
            .filter(|j| j.submit < train_end && seen.insert(j.name, ()).is_none())
            .map(|j| trace.names.display_name(j))
            .collect();
        let want = reference_buckets(&names, 0.25);
        let mut buckets = NameBuckets::new(0.25);
        let got: Vec<u32> = names.iter().map(|n| buckets.bucket(n)).collect();
        assert_eq!(got, want);
        assert_eq!((names.len(), buckets.num_buckets()), (1_477, 481));
    }

    #[test]
    fn normalized_bounds() {
        assert_eq!(normalized_distance("", ""), 0.0);
        assert_eq!(normalized_distance("abc", "abc"), 0.0);
        assert_eq!(normalized_distance("abc", "xyz"), 1.0);
        let d = normalized_distance("train_resnet50_run1", "train_resnet50_run2");
        assert!(d < 0.1);
    }

    #[test]
    fn strips_run_decorations() {
        assert_eq!(strip_run_suffix("train_resnet50_3"), "train_resnet50");
        assert_eq!(strip_run_suffix("train_resnet50_run12"), "train_resnet50");
        assert_eq!(strip_run_suffix("train_resnet50_lr5_7"), "train_resnet50");
        assert_eq!(strip_run_suffix("train_resnet50"), "train_resnet50");
        assert_eq!(strip_run_suffix("noxunderscore"), "noxunderscore");
    }

    #[test]
    fn buckets_group_resubmissions() {
        let mut b = NameBuckets::new(0.25);
        let a1 = b.bucket("train_resnet50_imagenet_1");
        let a2 = b.bucket("train_resnet50_imagenet_412");
        let a3 = b.bucket("train_resnet50_imagenet_lr3_9");
        assert_eq!(a1, a2);
        assert_eq!(a1, a3);
        let other = b.bucket("extract_frames_kinetics400_2");
        assert_ne!(a1, other);
        assert_eq!(b.num_buckets(), 2);
    }

    #[test]
    fn near_names_share_buckets() {
        let mut b = NameBuckets::new(0.25);
        let x = b.bucket("train_resnet50_imagenet");
        let y = b.bucket("train_resnet56_imagenet"); // 1 edit of 22 chars
        assert_eq!(x, y);
    }

    #[test]
    fn cache_is_consistent() {
        let mut b = NameBuckets::new(0.2);
        let first = b.bucket("eval_bert_base_wmt14_5");
        for _ in 0..10 {
            assert_eq!(b.bucket("eval_bert_base_wmt14_5"), first);
        }
    }
}
