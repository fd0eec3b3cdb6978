//! Small statistics helpers and the output checksum.

use flowkv_common::codec::crc32;
use flowkv_common::types::Tuple;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorted-output checksum: CRC32 over the rows `key \t value \t ts(BE)`
/// in byte order, byte-compatible with the repository's BENCH files.
pub fn output_crc(outputs: &[Tuple]) -> u32 {
    let mut lines: Vec<Vec<u8>> = outputs
        .iter()
        .map(|t| {
            let mut line = t.key.clone();
            line.push(b'\t');
            line.extend_from_slice(&t.value);
            line.push(b'\t');
            line.extend_from_slice(&t.timestamp.to_be_bytes());
            line
        })
        .collect();
    lines.sort();
    crc32(&lines.concat())
}

/// Window firings in an output: distinct (partition, output timestamp)
/// pairs, i.e. one per window end emitted by one worker.
pub fn firings(outputs: &[Tuple], parallelism: usize) -> u64 {
    let mut seen: Vec<(usize, i64)> = outputs
        .iter()
        .map(|t| {
            (
                flowkv_common::hash::partition_of(&t.key, parallelism),
                t.timestamp,
            )
        })
        .collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
