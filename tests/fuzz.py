"""Mutations of valid files, for the parser fuzz properties."""

from hypothesis import strategies as st

from scoreforge.smf import MAX_VLQ_VALUE, parse_smf, write_smf


def mutations(sources: list[bytes], midi: bool = False):
    """Hypothesis strategy: one of ``sources`` with 1-4 bytes overwritten,
    truncated, with 1-3 bytes inserted, or with 1-3 bytes deleted. With
    ``midi`` (the sources are MIDI files), a mutation may also delay one
    event of one track, and every later event of that track, by up to the
    most ticks its delta time holds: one small change of bytes that makes a
    long span."""

    @st.composite
    def mutated(draw):
        data = bytearray(draw(st.sampled_from(sources)))
        kind = draw(st.sampled_from(["overwrite", "truncate", "insert",
                                     "delete"] + (["delay"] if midi else [])))
        if kind == "delay":
            piece = parse_smf(bytes(data))
            track = piece.tracks[draw(st.integers(0, len(piece.tracks) - 1))]
            at = draw(st.integers(0, len(track) - 1))
            delta = track[at].tick - (track[at - 1].tick if at else 0)
            most = MAX_VLQ_VALUE - delta
            # the most, often: past one delta time's span, unless at tick 0
            shift = draw(st.integers(0, most) | st.just(most))
            track[at:] = [ev._replace(tick=ev.tick + shift) for ev in track[at:]]
            return write_smf(piece)
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
