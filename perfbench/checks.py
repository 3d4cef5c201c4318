"""Output checks for one perfbench_sim record.

Every check reads the raw record perfbench_sim prints and recomputes what
it tests from the configuration and per-flow counts, apart from the
simulator's own aggregates, or tests a property the model must have.
Each returns a list of failure messages; an empty list means it passed.
"""

import math

# One packet's slack for counts taken at a window edge: a packet emitted at
# the edge instant may fall on either side of it.
EDGE_SLACK = 1


def flow_rows(sub):
    cols = sub["flow_columns"]
    return [dict(zip(cols, row)) for row in sub["flows"]]


def in_flight_capacity(cfg, packet_bytes):
    """Packets one domain can hold between a source and host memory, by the
    config: the link queue and its wire, the PCIe link in flight, the IIO
    write buffer and the DMA read window. On-NIC memory is counted apart."""
    bits = packet_bytes * 8
    wire_s = cfg["net_propagation_ns"] * 1e-9
    pcie_s = cfg["pcie_propagation_ns"] * 1e-9
    return (cfg["link_queue_bytes"] // packet_bytes
            + math.ceil(cfg["link_rate_bps"] * (wire_s + pcie_s) / bits)
            + cfg["iio_capacity_bytes"] // packet_bytes
            + cfg["dma_max_outstanding_reads"]
            + 1)


def check_conservation(rec, sub):
    """Over the whole run, delivered + dropped <= sent for every flow, and
    the packets still in flight fit what the config can hold."""
    cfg = rec["config"]
    out = []
    gap_total = 0
    for f in flow_rows(sub):
        sent = f["warm_sent"] + f["sent"]
        done = f["warm_delivered"] + f["delivered"] + f["warm_dropped"] + f["dropped"]
        if done > sent:
            out.append("flow %d: delivered+dropped %d > sent %d" % (f["id"], done, sent))
        gap_total += sent - done
    smallest = min((f["packet_bytes"] for f in flow_rows(sub)), default=512)
    capacity = cfg["domains"] * in_flight_capacity(cfg, smallest)
    on_nic = sub["ebuf_backlog_end"]
    if on_nic * smallest > cfg["domains"] * cfg["nicmem_capacity_bytes"]:
        out.append("on-NIC backlog %d packets exceeds NIC memory" % on_nic)
    if gap_total - on_nic > capacity:
        out.append("%d packets in flight beyond the NIC, config holds %d"
                   % (gap_total - on_nic, capacity))
    return out


def expected_paced(f, until_ns):
    """Packets a paced source emits by `until_ns`: the first at its start,
    then one per packet gap."""
    gap_ns = f["packet_bytes"] * 8 * 1e9 / f["rate_bps"]
    if until_ns < f["start_ns"]:
        return 0
    return math.floor((until_ns - f["start_ns"]) / gap_ns) + 1


def check_pacing(rec, sub):
    """shardkv: every paced flow sent floor(rate x elapsed / packet bits)
    packets, within one."""
    if rec["workload"] != "shardkv":
        return []
    cfg = rec["config"]
    end = cfg["warmup_ns"] + cfg["measure_ns"]
    out = []
    for f in flow_rows(sub):
        if not f["paced"]:
            continue
        sent = f["warm_sent"] + f["sent"]
        want = expected_paced(f, end)
        if abs(sent - want) > EDGE_SLACK:
            out.append("flow %d sent %d, pacing gives %d" % (f["id"], sent, want))
    return out


def check_rates(rec, sub):
    """sim_mpps recomputed from per-flow delivered counts matches the
    program's aggregate; delivered traffic stays within what was offered
    (plus what was already in flight when the window opened) and within the
    200 Gbps link of each domain."""
    cfg = rec["config"]
    window_ns = cfg["measure_ns"]
    out = []
    rows = flow_rows(sub)
    delivered = sum(f["delivered"] for f in rows)
    mpps = delivered / window_ns * 1e3
    if not math.isclose(mpps, sub["aggregate_mpps"], rel_tol=1e-9, abs_tol=1e-12):
        out.append("aggregate %.9f Mpps, per-flow counts give %.9f"
                   % (sub["aggregate_mpps"], mpps))
    bits_delivered = 0.0
    bits_allowed = 0.0
    for f in rows:
        in_flight = f["warm_sent"] - f["warm_delivered"] - f["warm_dropped"]
        offered = f["rate_bps"] * window_ns * 1e-9 / (f["packet_bytes"] * 8)
        if f["paced"] and f["sent"] > math.floor(offered) + EDGE_SLACK:
            out.append("flow %d sent %d in the window, offered %.1f" % (f["id"], f["sent"], offered))
        if f["delivered"] > f["sent"] + in_flight:
            out.append("flow %d delivered %d > sent %d + in flight %d"
                       % (f["id"], f["delivered"], f["sent"], in_flight))
        bits_delivered += f["delivered"] * f["packet_bytes"] * 8
        bits_allowed += in_flight * f["packet_bytes"] * 8
    link_bits = cfg["domains"] * cfg["link_rate_bps"] * window_ns * 1e-9
    if bits_delivered > link_bits + bits_allowed:
        out.append("delivered %.0f bits in the window, links carry %.0f" % (bits_delivered, link_bits))
    return out


def check_tail_summary(rec, sub):
    """sim_p99_us is harness::average_tails' flow-weighted mean of per-flow
    P99s, kept before its integer-ns division: the two agree within 1 ns,
    and the mean recomputed from the per-flow P99s matches both."""
    rows = flow_rows(sub)
    tail = [f["p99_ns"] for f in rows if f["tail"]]
    if not tail:
        return ["no tail flows"]
    mean = sum(tail) / len(tail)
    out = []
    if not math.isclose(mean, sub["tail_p99_exact_ns"], rel_tol=1e-12):
        out.append("tail mean %.3f ns, per-flow P99s give %.3f" % (sub["tail_p99_exact_ns"], mean))
    if not 0 <= sub["tail_p99_exact_ns"] - sub["tail_p99_ns"] < 1:
        out.append("average_tails %d ns vs exact mean %.3f ns"
                   % (sub["tail_p99_ns"], sub["tail_p99_exact_ns"]))
    return out


def check_latency_floor(rec, sub):
    """Every flow's P50 is at least the network + PCIe propagation floor."""
    cfg = rec["config"]
    floor_ns = cfg["net_propagation_ns"] + cfg["pcie_propagation_ns"]
    return ["flow %d P50 %d ns below the %d ns propagation floor" % (f["id"], f["p50_ns"], floor_ns)
            for f in flow_rows(sub) if f["messages"] > 0 and f["p50_ns"] < floor_ns]


def check_audit(rec, sub):
    """The model's invariant pack reports no violation when the run ends."""
    return ["audit: " + v for v in sub["audit_violations"]]


def check_ddio(rec, sub):
    """Each tenant's DDIO occupancy fits its way capacity."""
    return ["DDIO slice %d holds %d buffers, capacity %d" % (i, occ, cap)
            for i, (occ, cap) in enumerate(sub["ddio_occupancy"]) if occ > cap]


def check_kv(rec, sub):
    """gets + puts equal the KV app's packet calls; on kv the get share is
    within binomial bounds (5 sigma) of 0.5."""
    out = []
    for k in sub["kv"]:
        n = k["gets"] + k["puts"]
        if n != k["calls"]:
            out.append("kv gets %d + puts %d != %d packet calls" % (k["gets"], k["puts"], k["calls"]))
        if rec["workload"] == "kv" and n > 0:
            share = k["gets"] / n
            if abs(share - 0.5) > 5 * math.sqrt(0.25 / n):
                out.append("kv get share %.4f outside 0.5 +- %.4f over %d calls"
                           % (share, 5 * math.sqrt(0.25 / n), n))
    if rec["workload"] == "kv" and not sub["kv"]:
        out.append("kv: no KV app reached")
    return out


SUBRUN_CHECKS = (check_conservation, check_pacing, check_rates, check_tail_summary,
                 check_latency_floor,
                 check_audit, check_ddio, check_kv)


def check_digests(rec):
    """Simulated outputs repeat exactly: every round reproduces the first
    round's sub-run digests, and the reference round (shardkv at one worker
    thread) matches them too."""
    out = []
    rounds = rec["round_digests"]
    if not rounds:
        return ["no rounds recorded"]
    first = rounds[0]
    for i, r in enumerate(rounds[1:], 1):
        if r != first:
            out.append("round %d digests %s differ from round 0 %s" % (i, r, first))
    for r in rec["reference_digests"]:
        if r != first:
            out.append("reference digests %s differ from %s" % (r, first))
    detail = [s["digest"] for s in rec["subruns"]]
    if detail[:len(first)] != first:
        out.append("checked sub-runs %s are not round 0's %s" % (detail[:len(first)], first))
    return out


def check_record(rec):
    """Runs every check; returns the failures, each prefixed by its check."""
    out = ["digests: " + m for m in check_digests(rec)]
    for i, sub in enumerate(rec["subruns"]):
        for chk in SUBRUN_CHECKS:
            out.extend("sub-run %d %s: %s" % (i, chk.__name__[6:], m) for m in chk(rec, sub))
    return out
