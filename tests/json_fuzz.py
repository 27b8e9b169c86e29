"""Hypothesis strategies for malformed JSON input to the form/vector loaders.

Arbitrary JSON values, plus values shaped almost like a form or a vectors
payload so that the fuzz reaches the per-entry checks, not only the
top-level ones.  Leaves stay small so every example loads or fails fast.
"""

from hypothesis import strategies as st

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=8)
    | st.floats()
    | st.sampled_from(["1", "-3/2", "0.5", "1/0", "0/0", "x", "", "[1]", "1e400", "-1e400", "1e5000",
                       "1e999999999", "-1e-999999999"])
    | st.text(max_size=4)
)
KEYS = st.sampled_from(["n", "degree", "entries", "idx", "value", "vectors"]) | st.text(max_size=3)

ANY_JSON = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=12,
)
NEAR_FORM = st.fixed_dictionaries(
    {
        "n": LEAVES,
        "degree": LEAVES,
        "entries": st.lists(
            st.fixed_dictionaries({"idx": st.lists(LEAVES, max_size=4), "value": LEAVES}),
            max_size=3,
        ),
    }
)
NEAR_VECTORS = st.fixed_dictionaries(
    {"vectors": st.lists(st.lists(LEAVES, min_size=3, max_size=5), min_size=2, max_size=4)}
)
JSON_PAYLOADS = ANY_JSON | NEAR_FORM | NEAR_VECTORS
