package vio

import (
	"fmt"

	"armvirt/internal/mem"
	"armvirt/internal/obs"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
)

// NetIf is a paravirtual network interface: an RX ring of guest-posted
// buffers and a TX ring of guest-posted frames. It enforces the memory
// access rules that separate the two I/O models (§II, §V):
//
//   - A KVM vhost backend has full access to guest memory: its reads and
//     writes resolve guest buffer addresses directly through the VM's
//     Stage-2 table (zero copy). Touching an unmapped guest address is a
//     bug and panics.
//   - A Xen netback may only touch pages the guest granted: its accesses
//     must present a grant reference, and the data moves via grant copy.
type NetIf struct {
	// Rx holds guest-posted empty receive buffers.
	Rx *Ring
	// Tx holds guest-posted outbound frames.
	Tx *Ring
	// s2 is the guest's Stage-2 table, consulted on backend access.
	s2 *mem.S2Table
	// eng/rec/tel, when set via Observe, publish IOKick events and
	// telemetry counts for every backend ring access.
	eng *sim.Engine
	rec *obs.Recorder
	tel *telemetry.Sampler
}

// NewNetIf creates an interface with the given ring sizes over the guest's
// Stage-2 table.
func NewNetIf(s2 *mem.S2Table, ringSize int) *NetIf {
	return &NetIf{
		Rx: NewRing("rx", ringSize),
		Tx: NewRing("tx", ringSize),
		s2: s2,
	}
}

// Observe attaches an observability recorder and a telemetry sampler:
// each backend access to the rings (vhost zero-copy or netback grant-copy,
// both directions) publishes an IOKick event and bumps the matching ring
// counter. Either may be nil to record nothing on that side.
func (n *NetIf) Observe(eng *sim.Engine, rec *obs.Recorder, tel *telemetry.Sampler) {
	n.eng = eng
	n.rec = rec
	n.tel = tel
}

// observe publishes one backend ring access; pcpu is unknown at this
// layer, so events land in the machine-level ring and machine-level
// telemetry columns.
func (n *NetIf) observe(path string, arg int64) {
	if n.eng == nil {
		return
	}
	now := n.eng.Now()
	if n.rec != nil {
		n.rec.Emit(now, obs.IOKick, -1, "", -1, path, arg)
	}
	n.tel.Count(now, -1, path, 1)
}

// PostRxBuffer posts an empty guest buffer (by IPA) for incoming data.
// Returns false when the ring is full.
func (n *NetIf) PostRxBuffer(addr mem.IPA, size int) bool {
	return n.Rx.Post(&Packet{GuestAddr: addr, Bytes: size})
}

// PostTxFrame posts an outbound frame living in guest memory.
func (n *NetIf) PostTxFrame(pk *Packet) bool {
	return n.Tx.Post(pk)
}

// VhostWriteRx is the KVM backend delivering an incoming frame: it takes
// the next posted RX buffer and DMAs into it *through the guest's Stage-2
// mapping* — the zero-copy path. Panics if the guest buffer is not mapped
// (vhost accessing unmapped guest memory is a host crash, not an error
// return).
func (n *NetIf) VhostWriteRx(pk *Packet) (*Packet, error) {
	buf := n.Rx.Consume()
	if buf == nil {
		return nil, fmt.Errorf("vio: rx ring empty (guest out of buffers)")
	}
	if pk.Bytes > buf.Bytes {
		return nil, fmt.Errorf("vio: frame %dB exceeds buffer %dB", pk.Bytes, buf.Bytes)
	}
	n.mustMapped(buf.GuestAddr, true)
	buf.Seq = pk.Seq
	buf.Stamp = pk.Stamp
	buf.Bytes = pk.Bytes
	n.Rx.Complete(buf)
	n.observe("vhost-rx", pk.Seq)
	return buf, nil
}

// VhostReadTx is the KVM backend transmitting a guest frame: it reads the
// payload directly from guest memory.
func (n *NetIf) VhostReadTx() (*Packet, error) {
	pk := n.Tx.Consume()
	if pk == nil {
		return nil, fmt.Errorf("vio: tx ring empty")
	}
	n.mustMapped(pk.GuestAddr, false)
	n.Tx.Complete(pk)
	n.observe("vhost-tx", pk.Seq)
	return pk, nil
}

func (n *NetIf) mustMapped(addr mem.IPA, write bool) {
	pa, perm, ok := n.s2.Lookup(addr)
	if !ok {
		panic(fmt.Sprintf("vio: backend access to unmapped guest address %#x", uint64(addr)))
	}
	if write && perm&mem.PermW == 0 {
		panic(fmt.Sprintf("vio: backend write to read-only guest page %#x (pa %#x)", uint64(addr), uint64(pa)))
	}
}

// NetbackWriteRx is the Xen backend delivering an incoming frame: the data
// is grant-copied into the guest buffer identified by its grant reference.
// Returns the copy's cycle cost.
func (n *NetIf) NetbackWriteRx(pk *Packet, grants *GrantTable, ref GrantRef) (*Packet, int64, error) {
	buf := n.Rx.Consume()
	if buf == nil {
		return nil, 0, fmt.Errorf("vio: rx ring empty")
	}
	cost, err := grants.Copy(ref, pk.Bytes)
	if err != nil {
		return nil, 0, fmt.Errorf("vio: netback rx without valid grant: %w", err)
	}
	buf.Seq = pk.Seq
	buf.Stamp = pk.Stamp
	buf.Bytes = pk.Bytes
	n.Rx.Complete(buf)
	n.observe("netback-rx", pk.Seq)
	return buf, int64(cost), nil
}

// NetbackReadTx is the Xen backend transmitting a guest frame via grant
// copy.
func (n *NetIf) NetbackReadTx(grants *GrantTable, ref GrantRef) (*Packet, int64, error) {
	pk := n.Tx.Consume()
	if pk == nil {
		return nil, 0, fmt.Errorf("vio: tx ring empty")
	}
	cost, err := grants.Copy(ref, pk.Bytes)
	if err != nil {
		return nil, 0, fmt.Errorf("vio: netback tx without valid grant: %w", err)
	}
	n.Tx.Complete(pk)
	n.observe("netback-tx", pk.Seq)
	return pk, int64(cost), nil
}
