"""Workload sizes and pinned output digests of the benchmark.

``full`` is what BENCHMARK.json runs; ``tiny`` is for the smoke test and for
the small passes that fill in layer metrics a traced workload does not reach.
"""

SIZES = {
    "full": {
        # verify --d 5 --n 2 --mode all --q 2: 33,649 lattice points, the
        # random samples and the 19-point boundary suite in one call.
        "campaign": {
            "d": 5, "n": 2, "q": 2, "samples": 2000, "setup_reps": 5, "build_reps": 5,
        },
        # witness --d 5 --n 4: each call builds all 2,344 elements.
        "queries": {"d": 5, "n": 4, "queries": 100, "setup_reps": 5, "build_reps": 5},
        # cover --d 5 --n 10 writes 120,100 lines; render --n 100 draws 10,002
        # polygons, six times per cover so that its percentiles have samples.
        "export": {
            "d": 5, "n": 10, "render_n": 100, "renders": 6, "setup_reps": 3, "build_reps": 1,
        },
    },
    "tiny": {
        "campaign": {"d": 3, "n": 2, "q": 1, "samples": 50, "setup_reps": 2, "build_reps": 2},
        "queries": {"d": 3, "n": 2, "queries": 10, "setup_reps": 2, "build_reps": 2},
        "export": {"d": 3, "n": 3, "render_n": 4, "renders": 1, "setup_reps": 2, "build_reps": 1},
    },
}

# SHA-256 of the files `cover` and `render --equilateral --labels` write.  The
# outputs are specified to be byte-identical across versions, so a mismatch
# is a failed operation.
DIGESTS = {
    "cover-d5-n10.jsonl": "454a56fb56b65f32779a45140955bb1fc0c29f28a57329b7cd1d7f55ccfd95d8",
    "render-n100.svg": "4131e9caa902b42551a86a09c29807164758435824f8232c28f4d4d3bc8e5f8e",
    "cover-d3-n3.jsonl": "2f7408a05b9a22755eed80b3ebfc5f66549eae533ab9575afe292a2addd0865f",
    "render-n4.svg": "fe748b959ee37dce5864f981d5ff7bcc0d5e7c35b7c8c4d4bd5a591990c7dabe",
}
