"""An independent judge of a run's ticks and of each block's emitted
value. Standard library only: it reads a netlist's block and wire rows
and a trace's delivered messages and stats, and nothing of the engine,
the blocks, the channel or the arithmetic.

Run it on a netlist in which every block's output also feeds a probe
block `seen_<id>` over a wire without an option, so that the message
each block emits is delivered, unshifted, at `seen_<id>.in`.
"""


from fractions import Fraction


def check_timeline(net, trace, budget=10 ** 8, seed=None):
    """Assert the run's transport, firing, causality, accounting and value
    laws; `budget` and `seed` are the tick budget and seed the run was
    given.

    - transport: a wire delivers its source's emitted events, each shifted
      by the wire's link delay at that event's tick, or nothing when the
      shifted message ends past the budget. It is listed in
      `stability_violations` exactly when those delays differ: a scalar
      with its change in span as its value error, any other message with
      its value as sent and as read (see `_misread`). A source that
      emitted nothing delivers nothing.
    - firing: a block's emission starts at its fire tick, the largest
      last tick among its delivered inputs, or 0 for a source. A block
      that emitted has every input delivered.
    - causality: no event of an emission comes before its fire tick.
    - accounting: `event_count` is the number of delivered events, and
      `total_ticks` is the last delivered tick (0 when none is).
    - values: each emission is on its block's clock and has its kind's
      sort, and its value is its kind's law over the spans, offsets and
      amplitudes of the block's delivered inputs (see `_value_law`). A
      value a seeded photon draw decides is not judged.
    """
    delivered, stats = trace.delivered, trace.stats
    unstable = []
    for src, src_port, dst, dst_port, (default, table) in net.wires:
        name = "%s.%s->%s.%s" % (src, src_port, dst, dst_port)
        got = delivered.get((dst, dst_port))
        emitted = delivered.get(("seen_" + src, "in"))
        if emitted is None:
            assert got is None, "%s delivers what %s never emitted" % (
                name, src)
            continue
        events, clock, amplitudes = emitted
        delays = [table.get(tick, default) for _role, tick in events]
        shifted = tuple((role, tick + delay)
                        for (role, tick), delay in zip(events, delays))
        if len(set(delays)) > 1:
            unstable.append("%s %s" % (name, _misread(events, shifted,
                                                      amplitudes)))
        if got is None:
            assert max(tick for _role, tick in shifted) > budget, \
                "%s lost a message that ends within the budget" % name
        else:
            assert got == (shifted, clock, amplitudes), \
                "%s delivered %r, not %r shifted by %r" % (
                    name, got, emitted, delays)
    assert sorted(stats.stability_violations) == sorted(unstable), (
        stats.stability_violations, unstable)

    ports_of = {}
    for _src, _src_port, dst, dst_port, _link in net.wires:
        ports_of.setdefault(dst, []).append(dst_port)
    for bid in net.blocks:
        emitted = delivered.get(("seen_" + bid, "in"))
        if emitted is None:
            continue
        ins = [delivered.get((bid, port)) for port in ports_of.get(bid, ())]
        assert None not in ins, "%s emitted without all its inputs" % bid
        fire = max((msg.events[-1][1] for msg in ins), default=0)
        ticks = [tick for _role, tick in emitted.events]
        assert ticks[0] == fire, "%s's emission starts at %d, not at %d" % (
            bid, ticks[0], fire)
        assert min(ticks) >= fire, "%s emits at %d, before it fires at %d" % (
            bid, min(ticks), fire)
        _check_value(bid, net, emitted, ins, seed)

    ticks = [tick for msg in delivered.values()
             for _role, tick in msg.events]
    assert stats.event_count == len(ticks), (stats.event_count, len(ticks))
    assert stats.total_ticks == max(ticks, default=0), (
        stats.total_ticks, max(ticks, default=0))


def _span(msg):
    return msg.events[-1][1] - msg.events[0][1]


def _offsets(msg):
    start = msg.events[0][1]
    return [tick - start for role, tick in msg.events if role == "value-pulse"]


def _misread(events, shifted, amplitudes):
    """A distortion as the run's warning names it: a scalar's change in
    span, else the value sent and the value read, each in braces."""
    if events[-1][0] == "end":
        return "value error %+d" % ((shifted[-1][1] - shifted[0][1])
                                    - (events[-1][1] - events[0][1]))
    return "value %s read as %s" % (_printed(events, amplitudes),
                                    _printed(shifted, amplitudes))


def _printed(events, amplitudes):
    """A value set's sorted offsets, or a multi-valent message's
    position:amplitude pairs by position, amplitudes at one position
    summed."""
    start = events[0][1]
    offsets = [tick - start for role, tick in events if role == "value-pulse"]
    if not amplitudes:
        return "{%s}" % ",".join(str(pos) for pos in sorted(offsets))
    buckets = {}
    for pos, amp in zip(offsets, amplitudes):
        buckets[pos] = buckets.get(pos, 0) + amp
    return "{%s}" % ",".join("%d:%d" % item
                             for item in sorted(buckets.items()))


def _value_law(kind, raw, ins, clock, seed):
    """What a block of `kind` emits on `clock`, from its params as the
    netlist writes them and its delivered input messages: a span (int), a
    value set (set), position -> amplitude buckets (dict), or None when a
    seeded photon draw decides it. Spans, not clocks, are compared across
    lanes: a race on two clocks races raw counts (ROADMAP item 2)."""
    spans = [_span(msg) for msg in ins]
    if kind == "source":
        value = int(raw["value"])
        return {int(raw["position"]): value} if "position" in raw else value
    if kind == "add":
        return sum(spans)
    if kind == "mul":
        return spans[0] * int(raw["k"])
    if kind in ("min", "max"):
        return min(spans) if kind == "min" else max(spans)
    if kind == "mux":
        return set(spans)
    if kind == "demux":
        return set(_offsets(ins[0]))
    if kind == "madd":
        return sum(pos * amp for msg in ins
                   for pos, amp in zip(_offsets(msg), msg.amplitudes))
    # convert and accumulator: whole pulses of `clock` in the input's span
    count = spans[0] * clock.frequency // ins[0].clock.frequency
    model = raw.get("model", "digital")
    if kind == "convert" or model == "digital":
        return count
    if model == "toggle":
        return count % (1 << int(raw["depth"]))
    if model == "analog":
        return count * Fraction(raw.get("rate", "1")) // 1
    if "seed" in raw or seed is not None:   # a photon count's Poisson draw
        return None
    return count * Fraction(raw.get("flux", "1")) // 1


def _check_value(bid, net, emitted, ins, seed):
    _id, kind, raw = net.blocks[bid]
    clock = net.clock_of[bid]
    assert emitted.clock == clock, "%s emits on %r, not on %r" % (
        bid, emitted.clock, clock)
    expected = _value_law(kind, raw, ins, clock, seed)
    roles = [role for role, _tick in emitted.events[1:]]
    if isinstance(expected, dict):
        got = (roles, list(zip(_offsets(emitted), emitted.amplitudes)))
        want = (["value-pulse"] * len(expected), sorted(expected.items()))
    elif isinstance(expected, set):
        got = (roles, emitted.amplitudes, _offsets(emitted))
        want = (["value-pulse"] * len(expected), (), sorted(expected))
    else:
        got = (roles, emitted.amplitudes,
               _span(emitted) if expected is not None else None)
        want = (["end"], (), expected)
    assert got == want, "%s (%s) emitted %r, not %r" % (
        bid, kind, emitted, expected)
