//! Property tests of the run-copy primitives (`copy_block`,
//! `append_block`) against a per-entry multi-index reference.

use proptest::prelude::*;
use ratucker_tensor::dense::{append_block, copy_block};
use ratucker_tensor::prelude::*;

/// One block move: source and destination shapes, the block's offset
/// in each, and its extents.
#[derive(Clone, Debug)]
struct Case {
    src_dims: Vec<usize>,
    src_off: Vec<usize>,
    dst_dims: Vec<usize>,
    dst_off: Vec<usize>,
    extents: Vec<usize>,
}

/// Orders 1–4, dims 1–6. Per mode the extent is 1, the full smaller
/// dim, or anything between; half the modes give both buffers the same
/// dim, so fully spanned leading modes (merged runs) come up often.
fn arb_case() -> impl Strategy<Value = Case> {
    prop::collection::vec(
        (
            1usize..=6,
            1usize..=6,
            0usize..4,
            0usize..6,
            0usize..6,
            0usize..2,
        ),
        1..=4,
    )
    .prop_map(|modes| {
        let mut c = Case {
            src_dims: vec![],
            src_off: vec![],
            dst_dims: vec![],
            dst_off: vec![],
            extents: vec![],
        };
        for (src, dst, pick, so, to, same) in modes {
            let dst = if same == 1 { src } else { dst };
            let room = src.min(dst);
            let ext = match pick {
                0 => 1,
                1 => room,
                _ => 1 + so % room,
            };
            c.src_dims.push(src);
            c.dst_dims.push(dst);
            c.extents.push(ext);
            c.src_off.push(so % (src - ext + 1));
            c.dst_off.push(to % (dst - ext + 1));
        }
        c
    })
}

/// Checks both primitives bitwise against the per-entry reference, with
/// entries distinct and exactly representable in `T`.
fn check<T: Scalar>(c: &Case) {
    let src_shape = Shape::new(&c.src_dims);
    let dst_shape = Shape::new(&c.dst_dims);
    let block = Shape::new(&c.extents);
    let src: Vec<T> = (0..src_shape.num_entries())
        .map(|i| T::from_f64(i as f64 + 0.5))
        .collect();
    let sentinel = T::from_f64(-1.0);

    let mut want = vec![sentinel; dst_shape.num_entries()];
    let mut want_appended = Vec::new();
    for idx in block.indices() {
        let s: Vec<usize> = idx.iter().zip(&c.src_off).map(|(i, o)| i + o).collect();
        let t: Vec<usize> = idx.iter().zip(&c.dst_off).map(|(i, o)| i + o).collect();
        let v = src[src_shape.linear_index(&s)];
        want[dst_shape.linear_index(&t)] = v;
        want_appended.push(v);
    }

    let mut got = vec![sentinel; dst_shape.num_entries()];
    copy_block(
        &src,
        &c.src_dims,
        &c.src_off,
        &mut got,
        &c.dst_dims,
        &c.dst_off,
        &c.extents,
    );
    let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want), "copy_block {c:?}");

    let mut appended = vec![sentinel];
    append_block(&src, &c.src_dims, &c.src_off, &c.extents, &mut appended);
    assert_eq!(
        bits(&appended[1..]),
        bits(&want_appended),
        "append_block {c:?}"
    );
    assert_eq!(appended[0].to_f64().to_bits(), sentinel.to_f64().to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn copy_block_matches_the_per_entry_reference_f64(c in arb_case()) {
        check::<f64>(&c);
    }

    #[test]
    fn copy_block_matches_the_per_entry_reference_f32(c in arb_case()) {
        check::<f32>(&c);
    }
}
