//! Pins the generator streams: every value a seeded source emits, and the
//! watermark it reports, is part of the repository's bit-exact contract
//! (the golden artifacts, the benchmark's reference results and every
//! `sim_*` number are functions of it). A change to how the generators
//! compute their rows must leave this file green without touching it.

use sbx_ingress::{KvSource, PowerGridSource, Source, YsbSource};

/// Values checksummed per stream.
const VALUES: usize = 100_000;
const TICKS_PER_SEC: u128 = 1_000_000_000;
/// Event rates that divide a second of ticks (500 000), leave a remainder
/// on every record (3, 7, 999 999 937) and exceed one record per tick
/// (2·10⁹: two records share each timestamp).
const RATES: [u64; 5] = [500_000, 3, 7, 999_999_937, 2_000_000_000];

/// FNV-1a, 64 bit, over the little-endian bytes of `values`.
fn fnv1a(values: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in values.iter().flat_map(|v| v.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

type Make = fn(u64, u64) -> Box<dyn Source>;

/// Every generator configuration the repository's workloads use, by
/// `(seed, event_rate)`.
const STREAMS: [(&str, Make); 7] = [
    ("kv", |seed, rate| {
        Box::new(KvSource::new(seed, 4_000_000, rate))
    }),
    ("kv_jitter", |seed, rate| {
        Box::new(KvSource::new(seed, 100_000, rate).with_jitter(50_000_000))
    }),
    // The Zipf table's weights come from `sbx_prng::math`, not `libm`, so
    // these two lines hold on every platform.
    ("kv_zipf", |seed, rate| {
        Box::new(
            KvSource::new(seed, 1_000, rate)
                .with_value_range(1_000_000)
                .with_zipf(0.99),
        )
    }),
    ("kv_zipf_1_2", |seed, rate| {
        Box::new(KvSource::new(seed, 50_000, rate).with_zipf(1.2))
    }),
    ("kv_secondary", |seed, rate| {
        Box::new(
            KvSource::new(seed, 1_000, rate)
                .with_value_range(1_000_000)
                .with_secondary_key(64),
        )
    }),
    ("ysb", |seed, rate| {
        Box::new(YsbSource::new(seed, 10_000, 1_000, rate))
    }),
    ("power_grid", |seed, rate| {
        Box::new(PowerGridSource::new(seed, 40, 20, rate))
    }),
];

/// Checksums of the first [`VALUES`] values at 500 000 records per
/// event-second, seeds 7 and 11, in [`STREAMS`] order.
const CHECKSUMS: [[u64; 2]; 7] = [
    [0x270b651ebf4889d5, 0x229d9326b6520210], // kv
    [0x7f4a0df4e2a40c6f, 0xdc2eec65942db8af], // kv_jitter
    [0x36118bf875e84515, 0x367f0d0492186295], // kv_zipf
    [0xb193a9ace2a8d3da, 0xd75577e32ec4a6e0], // kv_zipf_1_2
    [0x14690c7c8b8bf76c, 0x4bf53729402b7862], // kv_secondary
    [0x2ad41540e8af965d, 0x748fe91ab74ee245], // ysb
    [0x502eca2800fe76ec, 0x351c5229e43ee792], // power_grid
];

/// Checksum of the first [`VALUES`] values of `s`. Generic, so that a
/// `Box<dyn Source>` is driven through its own `Source` impl — the way the
/// engine's entry points drive the benchmark table's boxed sources.
fn checksum<S: Source>(mut s: S) -> u64 {
    let mut out = Vec::new();
    s.fill(VALUES.div_ceil(s.schema().ncols()), &mut out);
    fnv1a(&out[..VALUES])
}

#[test]
fn first_hundred_thousand_values_are_pinned() {
    let mut got = Vec::new();
    for (_, make) in STREAMS {
        got.push([7, 11].map(|seed| checksum(make(seed, 500_000))));
    }
    let table: Vec<String> = STREAMS
        .iter()
        .zip(&got)
        .map(|((name, _), [a, b])| format!("    [{a:#018x}, {b:#018x}], // {name}"))
        .collect();
    assert_eq!(
        got,
        CHECKSUMS,
        "generator streams changed; computed:\n{}",
        table.join("\n")
    );
}

/// `count · TICKS_PER_SEC / event_rate`, the closed form every source's
/// emission front follows.
fn front(count: usize, rate: u64) -> u64 {
    (count as u128 * TICKS_PER_SEC / u128::from(rate)) as u64
}

#[test]
fn chunking_does_not_change_the_stream_or_the_watermark() {
    const ROWS: usize = 1_500;
    for (name, make) in STREAMS {
        for rate in RATES {
            for seed in [7, 11] {
                let jitter = if name == "kv_jitter" { 50_000_000 } else { 0 };
                let watermark = |count| front(count, rate).saturating_sub(jitter);

                let mut whole = make(seed, rate);
                let ncols = whole.schema().ncols();
                let mut want = Vec::new();
                whole.fill(ROWS, &mut want);
                assert_eq!(want.len(), ROWS * ncols, "{name} @ {rate}");
                assert_eq!(whole.low_watermark().raw(), watermark(ROWS));

                // One row at a time: every row starts from the closed form.
                let mut single = make(seed, rate);
                let mut got = Vec::new();
                for count in 1..=ROWS {
                    single.fill(1, &mut got);
                    assert_eq!(
                        single.low_watermark().raw(),
                        watermark(count),
                        "{name} @ {rate} after {count} rows"
                    );
                }
                assert_eq!(got, want, "{name} @ {rate} seed {seed}: fill(1) x n");

                // Uneven chunks, an empty one included, appended to a buffer
                // that already holds something.
                let mut chunked = make(seed, rate);
                let mut got = vec![u64::MAX];
                let (mut done, mut chunk) = (0, 0);
                while done < ROWS {
                    let rows = chunk.min(ROWS - done);
                    chunked.fill(rows, &mut got);
                    done += rows;
                    chunk = (chunk * 2 + 1) % 401;
                    assert_eq!(chunked.low_watermark().raw(), watermark(done));
                }
                assert_eq!(got[0], u64::MAX, "fill appends");
                assert_eq!(&got[1..], &want[..], "{name} @ {rate}: uneven chunks");

                // Without jitter the timestamp column is the front itself.
                if jitter == 0 {
                    let ts_col = whole.schema().ts_col().0;
                    for (count, row) in want.chunks_exact(ncols).enumerate() {
                        assert_eq!(
                            row[ts_col],
                            front(count, rate),
                            "{name} @ {rate} row {count}"
                        );
                    }
                }
            }
        }
    }
}
