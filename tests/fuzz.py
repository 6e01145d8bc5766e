"""Byte-level mutations of valid files, for the parser fuzz properties."""

from hypothesis import strategies as st


def mutations(sources: list[bytes]):
    """Hypothesis strategy: one of ``sources`` with 1-4 bytes overwritten,
    truncated, with 1-3 bytes inserted, or with 1-3 bytes deleted."""

    @st.composite
    def mutated(draw):
        data = bytearray(draw(st.sampled_from(sources)))
        kind = draw(st.sampled_from(["overwrite", "truncate", "insert",
                                     "delete"]))
        at = draw(st.integers(0, len(data) - 1))
        if kind == "overwrite":
            data[at] = draw(st.integers(0, 255))
            for _ in range(draw(st.integers(0, 3))):
                data[draw(st.integers(0, len(data) - 1))] = draw(
                    st.integers(0, 255))
        elif kind == "truncate":
            del data[at:]
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=3))
        else:
            del data[at:at + draw(st.integers(1, 3))]
        return bytes(data)

    return mutated()
