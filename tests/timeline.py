"""An independent judge of a run's ticks, as the integer oracle is of its
values. Standard library only: it reads a netlist's wire rows and a
trace's delivered messages and stats, and nothing of the engine, the
channel or the arithmetic.

Run it on a netlist in which every block's output also feeds a probe
block `seen_<id>` over a wire without an option, so that the message
each block emits is delivered, unshifted, at `seen_<id>.in`.
"""


def check_timeline(net, trace, budget=10 ** 8):
    """Assert the run's transport, firing, causality and accounting laws;
    `budget` is the tick budget the run was given.

    - transport: a wire delivers its source's emitted events, each shifted
      by the wire's link delay at that event's tick, or nothing when the
      shifted message ends past the budget. It is listed in
      `stability_violations`, with the change in span as its value error,
      exactly when those delays differ. A source that emitted nothing
      delivers nothing.
    - firing: a block's emission starts at its fire tick, the largest
      last tick among its delivered inputs, or 0 for a source. A block
      that emitted has every input delivered.
    - causality: no event of an emission comes before its fire tick.
    - accounting: `event_count` is the number of delivered events, and
      `total_ticks` is the last delivered tick (0 when none is).
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
            error = (shifted[-1][1] - shifted[0][1]) - (
                events[-1][1] - events[0][1])
            unstable.append("%s value error %+d" % (name, error))
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

    ticks = [tick for msg in delivered.values()
             for _role, tick in msg.events]
    assert stats.event_count == len(ticks), (stats.event_count, len(ticks))
    assert stats.total_ticks == max(ticks, default=0), (
        stats.total_ticks, max(ticks, default=0))
