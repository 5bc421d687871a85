package hw

import (
	"testing"

	"armvirt/internal/cpu"
	"armvirt/internal/gic"
	"armvirt/internal/sim"
)

func armCost() *cpu.CostModel {
	return &cpu.CostModel{Arch: cpu.ARM, FreqMHz: 2400, IPISend: 50, IPIWire: 150}
}

func x86Cost() *cpu.CostModel {
	return &cpu.CostModel{Arch: cpu.X86, FreqMHz: 2100, IPISend: 50, IPIWire: 150}
}

func TestNewARMAndX86Machines(t *testing.T) {
	m := New(Config{Arch: cpu.ARM, NCPU: 8, Cost: armCost()})
	if m.NCPU() != 8 || m.Dist == nil {
		t.Fatal("ARM machine misbuilt")
	}
	for _, c := range m.CPUs {
		if c.VIface == nil || c.LAPIC != nil {
			t.Fatal("ARM CPUs need virtual GIC interfaces, not LAPICs")
		}
	}
	x := New(Config{Arch: cpu.X86, NCPU: 8, Cost: x86Cost()})
	if x.Dist != nil {
		t.Fatal("x86 machine should have no GIC distributor")
	}
	for _, c := range x.CPUs {
		if c.LAPIC == nil || c.VIface != nil {
			t.Fatal("x86 CPUs need LAPICs")
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	zeroFreq := armCost()
	zeroFreq.FreqMHz = 0
	negCost := armCost()
	negCost.IPISend = -1
	for name, cfg := range map[string]Config{
		"no CPUs":        {Arch: cpu.ARM, NCPU: 0, Cost: armCost()},
		"no cost":        {Arch: cpu.ARM, NCPU: 2},
		"arch mismatch":  {Arch: cpu.X86, NCPU: 2, Cost: armCost()},
		"zero frequency": {Arch: cpu.ARM, NCPU: 2, Cost: zeroFreq},
		"negative cost":  {Arch: cpu.ARM, NCPU: 2, Cost: negCost},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestSendIPIARMGoesThroughDistributor(t *testing.T) {
	m := New(Config{Arch: cpu.ARM, NCPU: 4, Cost: armCost()})
	var arrival sim.Time
	var sendDone sim.Time
	m.Eng.Go("sender", func(p *sim.Proc) {
		m.SendIPI(p, 2, 1)
		sendDone = p.Now()
	})
	m.Eng.Go("receiver", func(p *sim.Proc) {
		d := m.CPUs[2].IRQ.Recv(p)
		arrival = p.Now()
		if d.IRQ != 1 || d.CPU != 2 {
			t.Errorf("bad delivery %+v", d)
		}
	})
	m.Eng.Run()
	if sendDone != 50 {
		t.Errorf("sender paid %d, want IPISend=50", sendDone)
	}
	if arrival != 50+150 {
		t.Errorf("arrival at %d, want 200 (send+wire)", arrival)
	}
}

func TestSendIPIX86(t *testing.T) {
	m := New(Config{Arch: cpu.X86, NCPU: 4, Cost: x86Cost()})
	var arrival sim.Time
	m.Eng.Go("sender", func(p *sim.Proc) { m.SendIPI(p, 3, 1) })
	m.Eng.Go("receiver", func(p *sim.Proc) {
		m.CPUs[3].IRQ.Recv(p)
		arrival = p.Now()
	})
	m.Eng.Run()
	if arrival != 200 {
		t.Errorf("arrival at %d, want 200", arrival)
	}
}

func TestRaiseDeviceIRQ(t *testing.T) {
	for _, arch := range []cpu.Arch{cpu.ARM, cpu.X86} {
		cost := armCost()
		if arch == cpu.X86 {
			cost = x86Cost()
		}
		m := New(Config{Arch: arch, NCPU: 4, Cost: cost})
		m.RaiseDeviceIRQ(gic.IRQ(68), 1)
		m.Eng.Run()
		if m.CPUs[1].IRQ.Len() != 1 {
			t.Errorf("%v: device IRQ not delivered", arch)
		}
	}
}

func TestMicrosConversion(t *testing.T) {
	m := New(Config{Arch: cpu.ARM, NCPU: 1, Cost: armCost()})
	if got := m.Micros(2400); got != 1.0 {
		t.Errorf("2400 cycles = %v us, want 1", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := New(Config{Arch: cpu.ARM, NCPU: 1, Cost: armCost()})
	if m.CPUs[0].VIface.NumLRs() != gic.DefaultNumLRs {
		t.Errorf("default LR count = %d", m.CPUs[0].VIface.NumLRs())
	}
	if m.TLB == nil {
		t.Error("TLB missing")
	}
}

// TestPartitionedInterruptPaths drives every interrupt source a
// partitioned machine has — a CPU-to-CPU IPI and a device interrupt
// raised by a device on the shared partition — on both architectures at
// several worker counts: each delivery lands on the target CPU's
// partition after the wire latency, stamped with its arrival time.
func TestPartitionedInterruptPaths(t *testing.T) {
	for _, arch := range []cpu.Arch{cpu.ARM, cpu.X86} {
		cost := armCost()
		if arch == cpu.X86 {
			cost = x86Cost()
		}
		for _, workers := range []int{1, 2, 4} {
			m := New(Config{Arch: arch, NCPU: 4, Cost: cost, PartitionPerCPU: true})
			m.Eng.SetWorkers(workers)
			m.Eng.GoOn(m.PartOf(0), "sender", func(p *sim.Proc) { m.SendIPI(p, 3, 1) })
			m.Eng.GoOn(0, "device", func(p *sim.Proc) {
				p.Sleep(1000)
				m.RaiseDeviceIRQ(gic.IRQ(68), 1)
			})
			got := map[int]sim.Time{}
			for _, c := range []int{3, 1} {
				c := c
				m.Eng.GoOn(m.PartOf(c), "receiver", func(p *sim.Proc) {
					d := m.CPUs[c].IRQ.Recv(p)
					if d.At != p.Now() {
						t.Errorf("%v cpu%d: delivery stamped %d, received at %d", arch, c, d.At, p.Now())
					}
					got[c] = p.Now()
				})
			}
			m.Eng.Run()
			if got[3] != 50+150 || got[1] != 1000+150 {
				t.Errorf("%v workers=%d: IPI at %d (want 200), device IRQ at %d (want 1150)",
					arch, workers, got[3], got[1])
			}
		}
	}
}
