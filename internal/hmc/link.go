package hmc

import (
	"camps/internal/config"
	"camps/internal/fault"
	"camps/internal/obs"
	"camps/internal/sim"
	"camps/internal/stats"
)

// pipe is one direction of a serial link: a bandwidth-limited,
// store-and-forward packet channel. Serialization occupies the lane group
// for bytes/bandwidth; propagation (SerDes + flight) adds a fixed latency
// on top. Packets on one pipe are delivered in FIFO order.
//
// With link power management enabled (SleepAfter > 0), a pipe idle for
// longer than SleepAfter goes to sleep; the next packet pays WakeLatency
// and the slept interval is credited to the energy model.
type pipe struct {
	bytesPerSec int64
	prop        sim.Time
	nextFree    sim.Time

	sleepAfter sim.Time
	wakeLat    sim.Time

	bytes stats.Counter
	slept sim.Time // accumulated time in the low-power state

	// Observability (nil unless Link.Instrument was called): every packet
	// is published as an EvLinkFlit stamped with the link id and direction.
	tr     *obs.Tracer
	linkID int32
	dir    int32 // 0 request, 1 response

	// Fault injection (nil unless Link.SetFaults was called with an
	// injector): CRC-failed packets are retransmitted, charging the retry
	// turnaround plus a full re-serialization per retry.
	faults    *fault.LinkSite
	retryTurn sim.Time
}

func newPipe(l config.Links) *pipe {
	return &pipe{
		bytesPerSec: l.BytesPerSecond(),
		prop:        l.PropDelay,
		sleepAfter:  l.SleepAfter,
		wakeLat:     l.WakeLatency,
		retryTurn:   l.RetryTurnaround,
	}
}

// serTime returns the serialization time for a packet of n bytes.
func (p *pipe) serTime(n int) sim.Time {
	// bytes * 1e12 ps/s / (bytes/s); fits easily in int64 for sane sizes.
	return sim.Time(int64(n) * 1_000_000_000_000 / p.bytesPerSec)
}

// send schedules a packet of n bytes entering the pipe at time at and
// returns its delivery time at the far end plus the portion of the
// serialization spent on CRC retransmissions (zero on a clean transfer;
// attribution charges it to fault_retry rather than link time).
func (p *pipe) send(at sim.Time, n int) (delivery, retry sim.Time) {
	start := at
	if p.nextFree > start {
		start = p.nextFree
	}
	if p.sleepAfter > 0 && start-p.nextFree > p.sleepAfter {
		// The pipe slept from sleepAfter past its last activity until now.
		p.slept += start - p.nextFree - p.sleepAfter
		start += p.wakeLat
	}
	ser := p.serTime(n)
	// CRC retries: each retransmission re-serializes the packet after the
	// retry turnaround, occupying the lane group for the whole exchange.
	// Packets are FIFO per pipe, so the draw order is deterministic.
	if r := p.faults.PacketRetries(start); r > 0 {
		retry = sim.Time(r) * (p.retryTurn + p.serTime(n))
		ser += retry
	}
	p.nextFree = start + ser
	p.bytes.Add(uint64(n))
	p.tr.Emit(obs.Event{At: int64(start), Type: obs.EvLinkFlit, Vault: p.linkID, Bank: p.dir, Arg: int64(n)})
	return start + ser + p.prop, retry
}

// Link is one full-duplex serial link: a request pipe toward the cube and
// a response pipe back to the processor.
type Link struct {
	req  *pipe
	resp *pipe
}

// newLink builds a link from the configuration.
func newLink(l config.Links) *Link {
	return &Link{req: newPipe(l), resp: newPipe(l)}
}

// instrument publishes the link's packets as EvLinkFlit trace events
// tagged with id. tr may be nil.
func (l *Link) instrument(tr *obs.Tracer, id int) {
	l.req.tr, l.req.linkID, l.req.dir = tr, int32(id), 0
	l.resp.tr, l.resp.linkID, l.resp.dir = tr, int32(id), 1
}

// setFaults attaches the fault injector's per-direction CRC sites to this
// link (id is the link number). A nil injector detaches injection. Call
// before the simulation starts.
func (l *Link) setFaults(inj *fault.Injector, id int) {
	l.req.faults = inj.Link(id, 0)
	l.resp.faults = inj.Link(id, 1)
}

// sendRequest transmits a request packet of n bytes at time at; delivery
// is its arrival time at the cube, and retry the retransmission time
// folded into it (for latency attribution).
func (l *Link) sendRequest(at sim.Time, n int) (delivery, retry sim.Time) {
	return l.req.send(at, n)
}

// sendResponse transmits a response packet of n bytes at time at; delivery
// is its arrival time at the processor-side controller, and retry the
// retransmission time folded into it.
func (l *Link) sendResponse(at sim.Time, n int) (delivery, retry sim.Time) {
	return l.resp.send(at, n)
}

// LinkStats summarizes one link's traffic for the energy model: the
// bytes each direction carried and the time it spent asleep.
type LinkStats struct {
	ReqBytes, RespBytes uint64
	ReqSlept, RespSlept sim.Time
}

// stats returns the link's counters.
func (l *Link) stats() LinkStats {
	return LinkStats{
		ReqBytes:  l.req.bytes.Value(),
		RespBytes: l.resp.bytes.Value(),
		ReqSlept:  l.req.slept,
		RespSlept: l.resp.slept,
	}
}
