package workload

import (
	"fmt"

	"armvirt/internal/cpu"
	"armvirt/internal/hw"
	"armvirt/internal/hyp"
	"armvirt/internal/mem"
	"armvirt/internal/netdev"
	"armvirt/internal/sim"
	"armvirt/internal/vio"
)

// TCPRRResult is the Table V row for one configuration.
type TCPRRResult struct {
	Label string
	// TransPerSec is the netperf TCP_RR transaction rate.
	TransPerSec float64
	// TimePerTransUs is 1e6 / TransPerSec.
	TimePerTransUs float64
	// SendToRecvUs is client processing plus both wire flights (from the
	// server's transmit probe to its next receive probe).
	SendToRecvUs float64
	// RecvToSendUs is the server-side turnaround.
	RecvToSendUs float64
	// The virtualized decomposition of RecvToSend (zero for native).
	RecvToVMRecvUs   float64
	VMRecvToVMSendUs float64
	VMSendToSendUs   float64
}

func (r TCPRRResult) String() string {
	return fmt.Sprintf("%-10s %8.0f trans/s  %6.1f us/trans", r.Label, r.TransPerSec, r.TimePerTransUs)
}

// rrStamps aggregates probe timestamps over measured transactions.
type rrStamps struct {
	freqMHz  int
	warmup   int
	count    int
	firstT0  sim.Time
	lastDone sim.Time
	sums     map[string]float64
}

func newRRStamps(freqMHz, warmup int) *rrStamps {
	return &rrStamps{freqMHz: freqMHz, warmup: warmup, sums: map[string]float64{}}
}

// record accumulates one completed transaction's probe deltas.
func (s *rrStamps) record(i int, pk *vio.Packet, done sim.Time) {
	if i < s.warmup {
		return
	}
	if s.count == 0 {
		s.firstT0 = sim.Time(pk.Stamp["t0"])
	}
	s.lastDone = done
	s.count++
	leg := func(name, from, to string) {
		a, okA := pk.Stamp[from]
		b, okB := pk.Stamp[to]
		if okA && okB {
			s.sums[name] += float64(b-a) / float64(s.freqMHz)
		}
	}
	leg("recv_to_send", "recv", "send")
	leg("recv_to_vmrecv", "recv", "vmrecv")
	leg("vmrecv_to_vmsend", "vmrecv", "vmsend")
	leg("vmsend_to_send", "vmsend", "send")
}

func (s *rrStamps) result(label string) TCPRRResult {
	if s.count == 0 {
		panic("workload: no TCP_RR transactions measured")
	}
	n := float64(s.count)
	total := float64(s.lastDone-s.firstT0) / float64(s.freqMHz) / n
	r := TCPRRResult{
		Label:            label,
		TimePerTransUs:   total,
		TransPerSec:      1e6 / total,
		RecvToSendUs:     s.sums["recv_to_send"] / n,
		RecvToVMRecvUs:   s.sums["recv_to_vmrecv"] / n,
		VMRecvToVMSendUs: s.sums["vmrecv_to_vmsend"] / n,
		VMSendToSendUs:   s.sums["vmsend_to_send"] / n,
	}
	r.SendToRecvUs = r.TimePerTransUs - r.RecvToSendUs
	return r
}

// rrFixture is the client + wires + NIC common to every configuration.
type rrFixture struct {
	m      *hw.Machine
	up     *netdev.Wire // client -> server
	down   *netdev.Wire // server -> client
	nic    *netdev.NIC
	stamps *rrStamps
	prm    Params
	total  int
}

func newRRFixture(m *hw.Machine, prm Params, nicTarget int) *rrFixture {
	f := &rrFixture{
		m:      m,
		prm:    prm,
		total:  prm.RRTransactions + prm.RRWarmup,
		stamps: newRRStamps(m.Cost.FreqMHz, prm.RRWarmup),
	}
	f.up = netdev.NewWire(m.Eng, "client->server", prm.LinkGbps, m.Cost.FreqMHz, prm.WirePropagationUs)
	f.down = netdev.NewWire(m.Eng, "server->client", prm.LinkGbps, m.Cost.FreqMHz, prm.WirePropagationUs)
	f.nic = netdev.NewNIC(m, hyp.NICSpi, nicTarget)
	f.nic.Attach(f.up)
	return f
}

// run simulates the configuration to completion, then closes the engine:
// the NIC's rx-DMA process waits on its wire forever, and closing lets
// its goroutine — and the machine graph it references — go. The machine
// is spent afterwards; its recorder, sampler and stats stay readable.
func (f *rrFixture) run() {
	f.m.Eng.Run()
	f.m.Eng.Close()
}

func (f *rrFixture) us(x float64) sim.Time {
	return sim.Time(x * float64(f.m.Cost.FreqMHz))
}

// runClient drives the load generator: a 1-byte request/response ping-pong
// (64-byte frames on the wire), one transaction outstanding.
func (f *rrFixture) runClient() {
	f.m.Eng.Go("netperf-client", func(p *sim.Proc) {
		for i := 0; i < f.total; i++ {
			pk := &vio.Packet{Seq: int64(i), Bytes: 64}
			pk.SetStamp("t0", int64(p.Now()))
			f.up.Send(pk)
			resp := f.down.Out.Recv(p)
			p.Sleep(f.us(f.prm.ClientTurnaround))
			f.stamps.record(i, resp, p.Now())
		}
	})
}

// TCPRRNative runs the benchmark against a bare host (no hypervisor): the
// NIC interrupt, stack, and netserver all on the host kernel. The run
// closes m's engine (see rrFixture.run).
func TCPRRNative(m *hw.Machine, prm Params) TCPRRResult {
	f := newRRFixture(m, prm, 0)
	m.Eng.Go("native-server", func(p *sim.Proc) {
		for i := 0; i < f.total; i++ {
			pk := f.nic.RxQueue.Recv(p)
			pk.SetStamp("recv", int64(p.Now()))
			p.Sleep(f.us(prm.HostStackRecv + prm.AppProcess + prm.HostStackSend))
			pk.SetStamp("send", int64(p.Now()))
			f.down.Send(pk)
		}
	})
	f.runClient()
	f.run()
	return f.stamps.result("Native")
}

// TCPRRVirt runs the benchmark in a VM under h. The topology matches §III:
// the VM's VCPU on the guest PCPU set, the backend (vhost worker or Dom0)
// on the host set, paravirtual networking throughout. The run closes h's
// engine (see rrFixture.run).
func TCPRRVirt(h hyp.Hypervisor, prm Params) TCPRRResult {
	if h.HType() == hyp.Type1 {
		return tcprrXen(h, prm)
	}
	return tcprrKVM(h, prm)
}

// Guest buffer geometry for the paravirtual NIC rings.
const (
	rxBufBase  = mem.IPA(0x4000_0000)
	txBufBase  = mem.IPA(0x4100_0000)
	nRxBufs    = 16
	rxBufBytes = 2048
)

func tcprrKVM(h hyp.Hypervisor, prm Params) TCPRRResult {
	m := h.Machine()
	f := newRRFixture(m, prm, 4) // NIC IRQs to the host CPU set
	eng := m.Eng
	vm := h.NewVM("vm0", []int{0})
	v := vm.VCPUs[0]
	b := hyp.NewBackend(eng, "vhost", m.CPUs[4])
	// The virtio rings over the guest's Stage-2 table: vhost's accesses
	// are checked against the guest's mappings (zero copy means direct
	// access to guest memory — §II).
	netif := vio.NewNetIf(vm.S2, f.total+nRxBufs)
	netif.Observe(m.Eng, m.Rec, m.Tel)

	// Host receive path: NIC IRQ -> host stack -> bridge/tap -> vhost,
	// which DMAs into the guest-posted buffer and notifies through
	// irqfd.
	eng.Go("host-rx", func(p *sim.Proc) {
		for i := 0; i < f.total; i++ {
			pk := f.nic.RxQueue.Recv(p)
			pk.SetStamp("recv", int64(p.Now()))
			rxWork := f.us(prm.HostStackRecv + prm.BridgeTap + prm.VhostRx)
			f.m.Rec.ChargeCycles(p, "host rx stack + vhost", int64(rxWork))
			p.Sleep(rxWork)
			if _, err := netif.VhostWriteRx(pk); err != nil {
				panic("workload: " + err.Error())
			}
			h.NotifyGuest(p, nil, v, hyp.VirqVirtioNet)
		}
	})

	// Guest: netserver on the paravirtual NIC. Buffer pages are touched
	// (faulted in) and posted before traffic starts, as a freshly booted
	// guest driver does.
	hyp.Run(h, "guest-netserver", v, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < nRxBufs; i++ {
			addr := rxBufBase + mem.IPA(i)*mem.PageSize
			g.TouchPage(p, addr, true)
			if !netif.PostRxBuffer(addr, rxBufBytes) {
				panic("workload: rx ring full at setup")
			}
		}
		for i := 0; i < nRxBufs; i++ {
			g.TouchPage(p, txBufBase+mem.IPA(i)*mem.PageSize, true)
		}
		for i := 0; i < f.total; i++ {
			virq := g.WaitVirq(p, false)
			pk := netif.Rx.Reclaim()
			if pk == nil {
				panic("workload: virtio rx virq without packet")
			}
			pk.SetStamp("vmrecv", int64(p.Now()))
			g.Complete(p, virq)
			g.Compute(p, cpu.Cycles(f.us(prm.HostStackRecv+prm.AppProcess+prm.HostStackSend+prm.GuestStackExtraKVM)))
			resp := &vio.Packet{
				Seq:       pk.Seq,
				Bytes:     64,
				GuestAddr: txBufBase + mem.IPA(i%nRxBufs)*mem.PageSize,
				Stamp:     pk.Stamp,
			}
			resp.SetStamp("vmsend", int64(p.Now()))
			if !netif.PostTxFrame(resp) {
				panic("workload: tx ring full")
			}
			// Recycle the consumed receive buffer.
			if !netif.PostRxBuffer(pk.GuestAddr, rxBufBytes) {
				panic("workload: rx repost failed")
			}
			g.KickBackend(p, b)
		}
	})

	// vhost transmit half: reads the frame straight out of guest memory.
	eng.Go("vhost-tx", func(p *sim.Proc) {
		for i := 0; i < f.total; i++ {
			b.Inbox.Recv(p)
			h.BackendDispatch(p, b)
			pk, err := netif.VhostReadTx()
			if err != nil {
				panic("workload: " + err.Error())
			}
			txWork := f.us(prm.VhostTx + prm.HostStackSend)
			f.m.Rec.ChargeCycles(p, "vhost tx + host stack", int64(txWork))
			p.Sleep(txWork)
			pk.SetStamp("send", int64(p.Now()))
			f.down.Send(pk)
		}
	})

	f.runClient()
	f.run()
	return f.stamps.result(h.Name())
}

func tcprrXen(h hyp.Hypervisor, prm Params) TCPRRResult {
	m := h.Machine()
	type dom0er interface{ NewDom0(pin []int) *hyp.VM }
	dom0 := h.(dom0er).NewDom0([]int{4})
	d0v := dom0.VCPUs[0]
	f := newRRFixture(m, prm, 4) // NIC IRQs go to Dom0's PCPU
	eng := m.Eng
	vm := h.NewVM("domU", []int{0})
	v := vm.VCPUs[0]
	b := hyp.NewBackend(eng, "netback", m.CPUs[4])
	b.Dom0VCPU = d0v
	netif := vio.NewNetIf(vm.S2, f.total+nRxBufs)
	netif.Observe(m.Eng, m.Rec, m.Tel)
	grants := vio.NewGrantTable(vio.GrantCosts{
		Map:         900,
		Unmap:       400,
		UnmapTLBI:   m.Cost.TLBIBroadcast,
		CopyPerByte: m.Cost.CopyPerByte,
		CopyFixed:   m.Cost.MicrosToCycles(prm.GrantCopyFixedUs),
	})

	// Dom0: both the physical driver domain and the PV backend. It is
	// idle (in the idle domain) between events; every wake pays the
	// idle-domain switch — the paper's central Xen I/O finding.
	hyp.Run(h, "dom0-netback", d0v, func(p *sim.Proc, g *hyp.Guest) {
		rxDone, txDone := 0, 0
		for rxDone < f.total || txDone < f.total {
			virq := g.WaitVirq(p, false)
			switch virq {
			case hyp.NICSpi:
				// Physical NIC interrupt: receive path toward the VM.
				d0v.Charge(p, "dom0 upcall", cpu.Cycles(f.us(prm.Dom0UpcallUs)))
				pk, ok := f.nic.RxQueue.TryRecv()
				if !ok {
					panic("workload: NIC irq without packet")
				}
				pk.SetStamp("recv", int64(p.Now()))
				g.Compute(p, cpu.Cycles(f.us(prm.HostStackRecv+prm.NetbackRx)))
				// The guest granted its posted rx buffer; netback
				// grant-copies the payload into it.
				ref := grants.Grant(rxBufBase, false)
				_, c, err := netif.NetbackWriteRx(pk, grants, ref)
				if err != nil {
					panic(err)
				}
				d0v.Charge(p, "grant copy", cpu.Cycles(c))
				if err := grants.Revoke(ref); err != nil {
					panic(err)
				}
				h.NotifyGuest(p, d0v, v, hyp.VirqVirtioNet)
				rxDone++
			case hyp.VirqEvtchn:
				// DomU kicked the transmit ring.
				h.BackendDispatch(p, b)
				if _, ok := b.Inbox.TryRecv(); !ok {
					panic("workload: evtchn without kick token")
				}
				ref := grants.Grant(txBufBase, true)
				pk, c, err := netif.NetbackReadTx(grants, ref)
				if err != nil {
					panic(err)
				}
				d0v.Charge(p, "grant copy", cpu.Cycles(c))
				if err := grants.Revoke(ref); err != nil {
					panic(err)
				}
				g.Compute(p, cpu.Cycles(f.us(prm.NetbackTx+prm.HostStackSend)))
				pk.SetStamp("send", int64(p.Now()))
				f.down.Send(pk)
				txDone++
			default:
				panic(fmt.Sprintf("workload: dom0 got unexpected virq %d", virq))
			}
			g.Complete(p, virq)
		}
	})

	// DomU: netserver on netfront. Buffers are posted (and granted, in
	// the aggregate grant bookkeeping above) before traffic starts.
	hyp.Run(h, "domU-netserver", v, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < nRxBufs; i++ {
			addr := rxBufBase + mem.IPA(i)*mem.PageSize
			g.TouchPage(p, addr, true)
			if !netif.PostRxBuffer(addr, rxBufBytes) {
				panic("workload: rx ring full at setup")
			}
		}
		for i := 0; i < f.total; i++ {
			virq := g.WaitVirq(p, false)
			pk := netif.Rx.Reclaim()
			if pk == nil {
				panic("workload: netfront virq without packet")
			}
			g.Compute(p, cpu.Cycles(f.us(prm.NetfrontRx)))
			pk.SetStamp("vmrecv", int64(p.Now()))
			g.Complete(p, virq)
			g.Compute(p, cpu.Cycles(f.us(prm.HostStackRecv+prm.AppProcess+prm.HostStackSend+prm.GuestStackExtraXen)))
			resp := &vio.Packet{
				Seq:       pk.Seq,
				Bytes:     64,
				GuestAddr: txBufBase + mem.IPA(i%nRxBufs)*mem.PageSize,
				Stamp:     pk.Stamp,
			}
			resp.SetStamp("vmsend", int64(p.Now()))
			if !netif.PostTxFrame(resp) {
				panic("workload: tx ring full")
			}
			if !netif.PostRxBuffer(pk.GuestAddr, rxBufBytes) {
				panic("workload: rx repost failed")
			}
			g.KickBackend(p, b)
		}
	})

	f.runClient()
	f.run()
	return f.stamps.result(h.Name())
}
