package xray

import "cxlfork/internal/des"

// Slot indexes one component of a Ledger. The order is the exemplar
// component order; the service slots, Probe through Exec, are
// contiguous and last.
type Slot int

const (
	// PorterQueue is CompPorterQueue: arrival to the spawn or warm
	// serve decision.
	PorterQueue Slot = iota
	// Uplink is CompUplink: the Mitosis parent-uplink copy.
	Uplink
	// CPUQueue is CompCPUQueue: waiting for a free core. Close derives
	// it from the request's end time.
	CPUQueue
	// Probe is CompProbe: replica failover probe timeouts.
	Probe
	// Backoff is CompBackoff: retry backoff across failovers and
	// node-down retries.
	Backoff
	// Fabric is CompFabric: the fabric charge beyond the flat baseline.
	Fabric
	// Restore is CompRestore: the restore share of the service core.
	Restore
	// ColdInit is CompColdInit: the scratch cold start's init share.
	ColdInit
	// Container is CompContainer: container creation or ghost trigger.
	Container
	// Exec is CompExec: the execution share of the service core.
	Exec

	numSlots
)

var slotNames = [numSlots]string{
	CompPorterQueue, CompUplink, CompCPUQueue, CompProbe, CompBackoff,
	CompFabric, CompRestore, CompColdInit, CompContainer, CompExec,
}

// Ledger is one request's latency, written once per component and
// read by every consumer: the CPU charge is Service, the end-to-end
// latency Sum, and the attribution components Components. After
// Close, Sum equals the request's end minus its arrival by
// construction, so the decomposition carries no residual.
type Ledger [numSlots]des.Time

// Service is the time the request holds a core: every slot from Probe
// on.
func (l Ledger) Service() des.Time {
	var d des.Time
	for _, v := range l[Probe:] {
		d += v
	}
	return d
}

// Sum is the request's end-to-end latency: every slot.
func (l Ledger) Sum() des.Time {
	var d des.Time
	for _, v := range l {
		d += v
	}
	return d
}

// Close sets CPUQueue for a request that arrived at arrived and whose
// service ended at end: the gap between reaching the CPU queue
// (arrived + PorterQueue + Uplink) and starting service
// (end - Service).
func (l *Ledger) Close(arrived, end des.Time) {
	l[CPUQueue] = (end - l.Service()) - (arrived + l[PorterQueue] + l[Uplink])
}

// Components appends every slot, in slot order, to dst as named
// components and returns the extended slice. Zero slots are included;
// the attributor aggregates them as zero.
func (l Ledger) Components(dst []Component) []Component {
	for s, v := range l {
		dst = append(dst, Component{Name: slotNames[s], NS: int64(v)})
	}
	return dst
}
