package kernel_test

import (
	"bytes"
	"errors"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/core"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
)

// newNode builds a standard test node with a 16-page Buffer device.
func newNode(t *testing.T, cfg machine.Config) (*machine.Node, *device.Buffer) {
	t.Helper()
	n := machine.New(0, cfg)
	buf := device.NewBuffer("buf", 16, 0, 0)
	n.AttachDevice(buf, 0)
	t.Cleanup(n.Kernel.Shutdown)
	return n, buf
}

// forceOut applies memory pressure until the page at va has been
// evicted (bounded; reports whether it succeeded). The clock-sweep
// replacement policy picks victims in frame order, so a specific page
// goes out only after the hand passes its frame.
func forceOut(p *kernel.Proc, va addr.VAddr) bool {
	for i := 0; i < 200; i++ {
		pte := p.AddressSpace().Lookup(addr.VPN(va))
		if pte == nil || !pte.Present {
			return true
		}
		a, err := p.Alloc(4096)
		if err != nil {
			return false
		}
		p.Store(a, 1) // touch so fresh pages are referenced
	}
	return false
}

func run(t *testing.T, n *machine.Node) {
	t.Helper()
	if err := n.Kernel.Run(sim.Forever); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSpawnRunExit(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	ran := false
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		p.Compute(100)
		ran = true
	})
	run(t, n)
	if !ran {
		t.Fatal("process did not run")
	}
	if n.Clock.Now() < 100 {
		t.Fatalf("clock = %d, want >= 100", n.Clock.Now())
	}
}

func TestAllocLoadStore(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	var got uint32
	var loadErr error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, err := p.Alloc(8192)
		if err != nil {
			loadErr = err
			return
		}
		if err := p.Store(va+4, 0xCAFEBABE); err != nil {
			loadErr = err
			return
		}
		got, loadErr = p.Load(va + 4)
	})
	run(t, n)
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	if got != 0xCAFEBABE {
		t.Fatalf("Load = %#x", got)
	}
}

func TestAllocZeroFilled(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	var data []byte
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(4096)
		data, _ = p.ReadBuf(va, 4096)
	})
	run(t, n)
	for _, b := range data {
		if b != 0 {
			t.Fatal("fresh allocation not zero-filled")
		}
	}
}

func TestWildAccessSegfaults(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	var err error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		_, err = p.Load(0x0FFF_0000)
	})
	run(t, n)
	var sf *kernel.SegfaultError
	if !errors.As(err, &sf) {
		t.Fatalf("wild load returned %v, want SegfaultError", err)
	}
	if n.Kernel.Stats().Segfaults != 1 {
		t.Fatal("segfault not counted")
	}
}

func TestUDMATwoInstructionSendFromProcess(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	payload := []byte("full protection, two user-level memory references")
	var st core.Status
	var opErr error
	n.Kernel.Spawn("sender", func(p *kernel.Proc) {
		devVA, err := p.MapDevice(buf, true)
		if err != nil {
			opErr = err
			return
		}
		va, _ := p.Alloc(4096)
		if err := p.WriteBuf(va, payload); err != nil {
			opErr = err
			return
		}
		// The paper's sequence: STORE nbytes to the destination proxy,
		// LOAD status from the source proxy.
		if err := p.Store(devVA+256, uint32(len(payload))); err != nil {
			opErr = err
			return
		}
		v, err := p.Load(addr.VProxy(va))
		if err != nil {
			opErr = err
			return
		}
		st = core.Status(v)
		// Poll for completion by repeating the LOAD.
		for {
			v, _ := p.Load(addr.VProxy(va))
			if !core.Status(v).Match() {
				break
			}
		}
	})
	run(t, n)
	if opErr != nil {
		t.Fatal(opErr)
	}
	if !st.Initiated() {
		t.Fatalf("initiation failed: %v", st)
	}
	if got := buf.Bytes(256, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("device got %q", got)
	}
}

func TestUDMADevToMemThroughProxyWrite(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	payload := []byte("incoming data to any memory location")
	buf.SetBytes(512, payload)
	var got []byte
	var opErr error
	n.Kernel.Spawn("receiver", func(p *kernel.Proc) {
		devVA, _ := p.MapDevice(buf, true)
		va, _ := p.Alloc(4096)
		// STORE to the *memory* proxy names memory as the destination;
		// this requires write permission and fires the I3 protocol.
		if err := p.Store(addr.VProxy(va), uint32(len(payload))); err != nil {
			opErr = err
			return
		}
		if _, err := p.Load(devVA + 512); err != nil {
			opErr = err
			return
		}
		for {
			v, _ := p.Load(devVA + 512)
			if !core.Status(v).Match() {
				break
			}
		}
		got, opErr = p.ReadBuf(va, len(payload))
	})
	run(t, n)
	if opErr != nil {
		t.Fatal(opErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("memory got %q, want %q", got, payload)
	}
}

func TestI3ReadOnlyPageCannotBeDestination(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	var storeErr error
	var loadOK bool
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		devVA, _ := p.MapDevice(buf, true)
		va, _ := p.AllocReadOnly(4096, []byte("read-only source data"))
		// Destination use: STORE to PROXY(va) must segfault.
		storeErr = p.Store(addr.VProxy(va), 64)
		// Source use: still fine.
		if err := p.Store(devVA, 21); err != nil {
			return
		}
		v, err := p.Load(addr.VProxy(va))
		loadOK = err == nil && core.Status(v).Initiated()
	})
	run(t, n)
	var sf *kernel.SegfaultError
	if !errors.As(storeErr, &sf) {
		t.Fatalf("store to read-only proxy returned %v, want segfault", storeErr)
	}
	if !loadOK {
		t.Fatal("read-only page could not be used as a transfer source")
	}
}

func TestI3ProxyWriteMarksRealPageDirty(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	var dirtyBefore, dirtyAfter bool
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(4096)
		vpn := addr.VPN(va)
		// Start from a clean page, as after a cleaner pass.
		p.AddressSpace().Lookup(vpn).Dirty = false
		dirtyBefore = p.AddressSpace().Lookup(vpn).Dirty
		p.Store(addr.VProxy(va), 128) // destination naming → write fault → upgrade
		dirtyAfter = p.AddressSpace().Lookup(vpn).Dirty
	})
	run(t, n)
	if dirtyBefore || !dirtyAfter {
		t.Fatalf("dirty before=%v after=%v, want false→true", dirtyBefore, dirtyAfter)
	}
	if n.Kernel.Stats().ProxyUpgrades == 0 {
		t.Fatal("no I3 upgrade recorded")
	}
}

func TestI3CleanPageWriteProtectsProxy(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(4096)
		vpn := addr.VPN(va)
		p.Store(addr.VProxy(va), 128) // make proxy writable, page dirty
		if err := n.Kernel.CleanPage(p, vpn); err != nil {
			err2 = err
			return
		}
		if p.AddressSpace().Lookup(vpn).Dirty {
			err2 = errors.New("page still dirty after clean")
			return
		}
		proxyPTE := p.AddressSpace().Lookup(addr.VPN(addr.VProxy(va)))
		if proxyPTE == nil || proxyPTE.Writable {
			err2 = errors.New("proxy page still writable after clean (I3 violated)")
			return
		}
		// Writing through the proxy again must re-dirty the page.
		if err := p.Store(addr.VProxy(va), 64); err != nil {
			err2 = err
			return
		}
		if !p.AddressSpace().Lookup(vpn).Dirty {
			err2 = errors.New("re-upgrade did not mark page dirty")
		}
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
}

func TestI3CleanRaceKeepsDirtyWhileDMAInFlight(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		devVA, _ := p.MapDevice(buf, true)
		va, _ := p.Alloc(4096)
		vpn := addr.VPN(va)
		// Start a slow dev→mem transfer into the page.
		p.Store(addr.VProxy(va), 4096)
		p.Load(devVA)
		if !n.Kernel.UDMA().PageInUse(p.AddressSpace().Lookup(vpn).PPN) {
			err2 = errors.New("frame not marked in use during transfer")
			return
		}
		// Cleaner runs mid-transfer: the dirty bit must survive.
		if err := n.Kernel.CleanPage(p, vpn); err != nil {
			err2 = err
			return
		}
		if !p.AddressSpace().Lookup(vpn).Dirty {
			err2 = errors.New("clean cleared dirty bit during in-flight DMA (I3 race)")
		}
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if n.Kernel.Stats().CleanRaceKeeps == 0 {
		t.Fatal("race keep not recorded")
	}
}

func TestI2EvictionInvalidatesProxyMapping(t *testing.T) {
	// Small RAM so allocations force eviction.
	n, _ := newNode(t, machine.Config{RAMFrames: 24})
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(4096)
		p.WriteBuf(va, []byte("victim page"))
		p.Store(addr.VProxy(va), 64)         // create proxy mapping
		p.Store(addr.VProxy(va), ^uint32(0)) // Inval: don't leave a latch
		proxyVPN := addr.VPN(addr.VProxy(va))
		if p.AddressSpace().Lookup(proxyVPN) == nil {
			err2 = errors.New("proxy mapping was not created")
			return
		}
		// Apply pressure until the victim page goes out.
		if !forceOut(p, va) {
			err2 = errors.New("test inconclusive: victim page never evicted")
			return
		}
		if p.AddressSpace().Lookup(proxyVPN) != nil {
			err2 = errors.New("I2 violated: proxy mapping survived eviction of its real page")
			return
		}
		// Touching the page again pages it in; the proxy fault rebuilds
		// the mapping against the *new* frame.
		if _, err := p.Load(va); err != nil {
			err2 = err
			return
		}
		data, err := p.ReadBuf(va, 11)
		if err != nil {
			err2 = err
			return
		}
		if string(data) != "victim page" {
			err2 = errors.New("page contents lost across eviction: " + string(data))
		}
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if n.Kernel.Stats().Evictions == 0 || n.Kernel.Stats().PageIns == 0 {
		t.Fatalf("stats = %+v: expected evictions and page-ins", n.Kernel.Stats())
	}
}

func TestI2ProxyFaultPagesInSwappedPage(t *testing.T) {
	n, buf := newNode(t, machine.Config{RAMFrames: 24})
	var st core.Status
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		devVA, _ := p.MapDevice(buf, true)
		va, _ := p.Alloc(4096)
		p.WriteBuf(va, []byte("swapped-out source"))
		if !forceOut(p, va) {
			err2 = errors.New("test inconclusive: page never evicted")
			return
		}
		// Case 2 of the proxy fault handler: the LOAD of PROXY(va)
		// pages the real page in, then maps the proxy page.
		p.Store(devVA, 18)
		v, err := p.Load(addr.VProxy(va))
		if err != nil {
			err2 = err
			return
		}
		st = core.Status(v)
		// The paged-in contents must be intact and must reach the
		// device; wait for the transfer to finish.
		if data, _ := p.ReadBuf(va, 18); string(data) != "swapped-out source" {
			err2 = errors.New("page-in corrupted contents: " + string(data))
			return
		}
		for {
			v, _ := p.Load(addr.VProxy(va))
			if !core.Status(v).Match() {
				break
			}
		}
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !st.Initiated() {
		t.Fatalf("initiation after page-in failed: %v", st)
	}
	r := make([]byte, 18)
	copy(r, buf.Bytes(0, 18))
	if string(r) != "swapped-out source" {
		t.Fatalf("device got %q", r)
	}
}

func TestProxyFaultOnUnmappedPageSegfaults(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	var err error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		// Case 3: no real mapping behind the proxy page.
		_, err = p.Load(addr.VAddr(addr.MemProxyBase | 0x0050_0000))
	})
	run(t, n)
	var sf *kernel.SegfaultError
	if !errors.As(err, &sf) {
		t.Fatalf("got %v, want segfault", err)
	}
}

func TestI4EvictionSkipsFramesHeldByUDMA(t *testing.T) {
	// A very slow device keeps the transfer in flight across the whole
	// pressure phase, so the replacement sweep must repeatedly pass over
	// (and refuse) the source frame.
	n := machine.New(0, machine.Config{RAMFrames: 24})
	slow := device.NewBuffer("slow", 16, 0, 60_000_000) // ~1 s device latency
	n.AttachDevice(slow, 0)
	t.Cleanup(n.Kernel.Shutdown)
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		devVA, _ := p.MapDevice(slow, true)
		src, _ := p.Alloc(4096)
		p.WriteBuf(src, bytes.Repeat([]byte{0xAB}, 4096))
		// Launch a full-page transfer, then apply enough pressure that
		// every frame is considered for eviction while it is in flight.
		p.Store(devVA, 4096)
		v, _ := p.Load(addr.VProxy(src))
		if !core.Status(v).Initiated() {
			err2 = errors.New("initiation failed")
			return
		}
		for i := 0; i < 40; i++ {
			a, err := p.Alloc(4096)
			if err != nil {
				err2 = err
				return
			}
			p.Store(a, 1)
		}
		if !n.Kernel.UDMA().PageInUse(p.AddressSpace().Lookup(addr.VPN(src)).PPN) {
			err2 = errors.New("test inconclusive: transfer finished before pressure")
			return
		}
		// Wait out the transfer without busy-polling.
		for {
			v, _ := p.Load(addr.VProxy(src))
			if !core.Status(v).Match() {
				break
			}
			p.Sleep(5_000_000)
		}
		got := slow.Bytes(0, 4096)
		for _, b := range got {
			if b != 0xAB {
				err2 = errors.New("transferred data corrupted by remap")
				return
			}
		}
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if n.Kernel.Stats().EvictionStallsI4 == 0 {
		t.Fatal("eviction never consulted the I4 guard (frame was never a candidate)")
	}
}

func TestI4DestLoadedLatchClearedByInval(t *testing.T) {
	n, _ := newNode(t, machine.Config{RAMFrames: 24})
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		dst, _ := p.Alloc(4096)
		// Latch dst as a destination, then leave the sequence hanging.
		if err := p.Store(addr.VProxy(dst), 4096); err != nil {
			err2 = err
			return
		}
		if _, ok := n.Kernel.UDMA().DestLoadedFrame(); !ok {
			err2 = errors.New("latch not occupied")
			return
		}
		// Memory pressure: the kernel may Inval the latch to free the
		// frame rather than stall.
		if _, err := p.Alloc(28 * 4096); err != nil {
			err2 = err
		}
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
}

func TestI1ContextSwitchInvalsPartialSequence(t *testing.T) {
	// Quantum so small that the victim is preempted between its STORE
	// and LOAD; the interloper must not be able to hijack the latched
	// destination, and the victim's LOAD must return a retryable status.
	n, buf := newNode(t, machine.Config{
		Kernel: kernel.Config{Quantum: 70}, // one uncached ref each slice
	})
	payload := []byte("must not leak to wrong destination!")
	var victimStatus core.Status
	var victimErr error
	var retried bool

	n.Kernel.Spawn("victim", func(p *kernel.Proc) {
		devVA, _ := p.MapDevice(buf, true)
		va, _ := p.Alloc(4096)
		p.WriteBuf(va, payload)
		// First attempt: STORE, get preempted, LOAD.
		p.Store(devVA+0, uint32(len(payload)))
		v, err := p.Load(addr.VProxy(va))
		if err != nil {
			victimErr = err
			return
		}
		victimStatus = core.Status(v)
		// The library idiom: retry the whole sequence until it sticks.
		for !core.Status(v).Initiated() {
			retried = true
			if core.Status(v).Failed() {
				victimErr = errors.New("hard failure: " + core.Status(v).String())
				return
			}
			p.Store(devVA+0, uint32(len(payload)))
			v, _ = p.Load(addr.VProxy(va))
		}
		for {
			s, _ := p.Load(addr.VProxy(va))
			if !core.Status(s).Match() {
				break
			}
		}
	})
	n.Kernel.Spawn("interloper", func(p *kernel.Proc) {
		// Burn CPU so context switches happen around the victim's
		// two-instruction sequence.
		for i := 0; i < 300; i++ {
			p.Compute(10)
		}
	})
	run(t, n)
	if victimErr != nil {
		t.Fatal(victimErr)
	}
	if n.Kernel.Stats().Invals == 0 {
		t.Fatal("no context-switch Invals fired")
	}
	if !victimStatus.Initiated() && !retried {
		t.Fatal("victim neither succeeded first try nor retried")
	}
	if got := buf.Bytes(0, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted or missing: %q", got)
	}
}

func TestI1InterleavedProcessesCannotMixHalves(t *testing.T) {
	// Process A STOREs a destination, is preempted; process B STOREs
	// its own destination and LOADs. B's transfer must use B's
	// destination, and A's LOAD must not initiate with B's state.
	// (The quantum must comfortably exceed the cost of the two-
	// instruction sequence, as any real scheduler's does — a quantum
	// close to one I/O reference livelocks both senders, since every
	// switch Invals the other's half-finished sequence.)
	n, buf := newNode(t, machine.Config{
		Kernel: kernel.Config{Quantum: 500},
	})
	aPayload := bytes.Repeat([]byte{0xAA}, 64)
	bPayload := bytes.Repeat([]byte{0xBB}, 64)
	var aDone, bDone bool
	sendAll := func(p *kernel.Proc, devOff uint32, payload []byte, done *bool) {
		devVA, _ := p.MapDevice(buf, true)
		va, _ := p.Alloc(4096)
		p.WriteBuf(va, payload)
		for try := 0; ; try++ {
			if try > 10_000 {
				return // fail the test via !done rather than hanging
			}
			p.Store(devVA+addr.VAddr(devOff), uint32(len(payload)))
			v, err := p.Load(addr.VProxy(va))
			if err != nil {
				return
			}
			st := core.Status(v)
			if st.Initiated() {
				break
			}
			if st.Failed() {
				return
			}
		}
		for {
			v, _ := p.Load(addr.VProxy(va))
			if !core.Status(v).Match() {
				break
			}
		}
		*done = true
	}
	n.Kernel.Spawn("A", func(p *kernel.Proc) { sendAll(p, 0, aPayload, &aDone) })
	n.Kernel.Spawn("B", func(p *kernel.Proc) { sendAll(p, 2048, bPayload, &bDone) })
	run(t, n)
	if !aDone || !bDone {
		t.Fatalf("aDone=%v bDone=%v", aDone, bDone)
	}
	if got := buf.Bytes(0, 64); !bytes.Equal(got, aPayload) {
		t.Fatalf("A's region corrupted: % x", got[:8])
	}
	if got := buf.Bytes(2048, 64); !bytes.Equal(got, bPayload) {
		t.Fatalf("B's region corrupted: % x", got[:8])
	}
}

func TestMapDeviceGrantsAndProtection(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	var ungranted, roWrite error
	n.Kernel.Spawn("nogrant", func(p *kernel.Proc) {
		// Touching device proxy space without MapDevice → segfault.
		_, ungranted = p.Load(addr.VAddr(addr.DevProxy(0, 0)))
	})
	n.Kernel.Spawn("rogrант", func(p *kernel.Proc) {
		devVA, _ := p.MapDevice(buf, false) // read-only grant
		roWrite = p.Store(devVA, 64)
	})
	run(t, n)
	var sf *kernel.SegfaultError
	if !errors.As(ungranted, &sf) {
		t.Fatalf("ungranted access: %v, want segfault", ungranted)
	}
	if !errors.As(roWrite, &sf) {
		t.Fatalf("read-only grant write: %v, want segfault", roWrite)
	}
}

func TestTraditionalDMAWrite(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	payload := bytes.Repeat([]byte("kernel-DMA "), 400) // ~4.4 KB, 2 pages
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(len(payload))
		p.WriteBuf(va, payload)
		err2 = p.DMAWrite(va, addr.DevProxy(0, 0), len(payload), kernel.DMAOptions{})
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if got := buf.Bytes(0, len(payload)); !bytes.Equal(got, payload) {
		t.Fatal("device contents wrong after kernel DMA")
	}
	st := n.Kernel.Stats()
	if st.Pins != 2 || st.Unpins != 2 {
		t.Fatalf("pins=%d unpins=%d, want 2,2", st.Pins, st.Unpins)
	}
	if st.Syscalls == 0 {
		t.Fatal("no syscall recorded")
	}
}

func TestTraditionalDMARead(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	payload := []byte("from the device into user memory")
	buf.SetBytes(100, payload)
	var got []byte
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(4096)
		if err := p.DMARead(va, addr.DevProxy(0, 100), len(payload), kernel.DMAOptions{}); err != nil {
			err2 = err
			return
		}
		got, err2 = p.ReadBuf(va, len(payload))
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestTraditionalDMABounce(t *testing.T) {
	n, buf := newNode(t, machine.Config{
		Kernel: kernel.Config{BounceFrames: 4},
	})
	payload := bytes.Repeat([]byte{7}, 3*4096)
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(len(payload))
		p.WriteBuf(va, payload)
		err2 = p.DMAWrite(va, addr.DevProxy(0, 0), len(payload), kernel.DMAOptions{Bounce: true})
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	if got := buf.Bytes(0, len(payload)); !bytes.Equal(got, payload) {
		t.Fatal("device contents wrong after bounce DMA")
	}
	if n.Kernel.Stats().Pins != 0 {
		t.Fatal("bounce path pinned user pages")
	}
}

func TestBounceWithoutBuffersFails(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(4096)
		err2 = p.DMAWrite(va, addr.DevProxy(0, 0), 64, kernel.DMAOptions{Bounce: true})
	})
	run(t, n)
	if err2 == nil {
		t.Fatal("bounce DMA succeeded without bounce buffers")
	}
}

func TestUDMAFasterThanTraditional(t *testing.T) {
	// The headline claim: initiating via UDMA is dramatically cheaper
	// than the kernel path for the same small transfer.
	elapsed := func(useUDMA bool) sim.Cycles {
		n, buf := newNode(t, machine.Config{})
		var start, end sim.Cycles
		n.Kernel.Spawn("p", func(p *kernel.Proc) {
			devVA, _ := p.MapDevice(buf, true)
			va, _ := p.Alloc(4096)
			p.WriteBuf(va, bytes.Repeat([]byte{1}, 1024))
			// Warm the proxy mappings so we measure steady state.
			p.Store(devVA, 4)
			p.Load(addr.VProxy(va))
			for {
				v, _ := p.Load(addr.VProxy(va))
				if !core.Status(v).Match() && !core.Status(v).Transferring() {
					break
				}
			}
			start = p.Now()
			if useUDMA {
				p.Store(devVA+1024, 1024)
				p.Load(addr.VProxy(va))
				for {
					v, _ := p.Load(addr.VProxy(va))
					if !core.Status(v).Match() {
						break
					}
				}
			} else {
				p.DMAWrite(va, addr.DevProxy(0, 2048), 1024, kernel.DMAOptions{})
			}
			end = p.Now()
		})
		run(t, n)
		return end - start
	}
	udma, trad := elapsed(true), elapsed(false)
	if udma >= trad {
		t.Fatalf("UDMA (%d cycles) not faster than traditional (%d cycles)", udma, trad)
	}
}

func TestPreemptionInterleavesProcesses(t *testing.T) {
	n, _ := newNode(t, machine.Config{Kernel: kernel.Config{Quantum: 50}})
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		n.Kernel.Spawn(name, func(p *kernel.Proc) {
			for i := 0; i < 5; i++ {
				p.Compute(40)
				order = append(order, name)
			}
		})
	}
	run(t, n)
	if len(order) != 10 {
		t.Fatalf("order = %v", order)
	}
	// With a 50-cycle quantum and 40-cycle steps, the two processes
	// must interleave rather than run to completion back-to-back.
	switches := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			switches++
		}
	}
	if switches < 3 {
		t.Fatalf("processes barely interleaved: %v", order)
	}
	if n.Kernel.Stats().ContextSwitches == 0 {
		t.Fatal("no context switches recorded")
	}
}

func TestSleepWakes(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	var woke sim.Cycles
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		p.Sleep(5000)
		woke = p.Now()
	})
	run(t, n)
	if woke < 5000 {
		t.Fatalf("woke at %d, want >= 5000", woke)
	}
}

func TestPinUserPageSurvivesPressure(t *testing.T) {
	n, _ := newNode(t, machine.Config{RAMFrames: 24})
	var err2 error
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(4096)
		p.WriteBuf(va, []byte("pinned receive buffer"))
		pfn, err := n.Kernel.PinUserPage(p, addr.VPN(va))
		if err != nil {
			err2 = err
			return
		}
		if _, err := p.Alloc(28 * 4096); err != nil {
			err2 = err
			return
		}
		pte := p.AddressSpace().Lookup(addr.VPN(va))
		if !pte.Present || pte.PPN != pfn {
			err2 = errors.New("pinned page was evicted or moved")
			return
		}
		n.Kernel.UnpinUserPage(pfn)
	})
	run(t, n)
	if err2 != nil {
		t.Fatal(err2)
	}
}

func TestDeadlockDetected(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	n.Kernel.Spawn("stuck", func(p *kernel.Proc) {
		p.Sleep(sim.Forever) // never wakes within any horizon
	})
	// Sleep schedules an event at Forever; run with a finite limit.
	if err := n.Kernel.Run(1_000_000); err != nil {
		t.Fatalf("Run returned %v, want nil at time limit", err)
	}
}

func TestShutdownKillsBlockedProcesses(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	n.Kernel.Spawn("loop", func(p *kernel.Proc) {
		for {
			p.Compute(1000)
		}
	})
	n.Kernel.RunFor(10_000)
	n.Kernel.Shutdown() // must not hang; Cleanup will call it again
}

// TestShutdownUnwindsNeverRunBlockingProcess covers a process that never
// ran and whose first call blocks: Shutdown starts it to kill it, and
// it must still unwind instead of staying parked (leaking its goroutine
// and everything the goroutine references).
func TestShutdownUnwindsNeverRunBlockingProcess(t *testing.T) {
	n, _ := newNode(t, machine.Config{})
	n.Kernel.Spawn("sleeper", func(p *kernel.Proc) {
		p.Sleep(1000)
	})
	n.Kernel.Shutdown()
	if !n.Kernel.AllExited() {
		t.Fatal("a never-run process that blocked on its first call survived Shutdown")
	}
}

func TestNoUDMAMachine(t *testing.T) {
	n := machine.New(0, machine.Config{NoUDMA: true})
	buf := device.NewBuffer("buf", 4, 0, 0)
	n.AttachDevice(buf, 0)
	t.Cleanup(n.Kernel.Shutdown)
	payload := []byte("baseline still works")
	var err2 error
	var proxyVal uint32
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		va, _ := p.Alloc(4096)
		p.WriteBuf(va, payload)
		if err := p.DMAWrite(va, addr.DevProxy(0, 0), len(payload), kernel.DMAOptions{}); err != nil {
			err2 = err
			return
		}
		// Proxy loads hit the open bus.
		proxyVal, _ = p.Load(addr.VProxy(va))
	})
	if err := n.Kernel.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(buf.Bytes(0, len(payload)), payload) {
		t.Fatal("kernel DMA failed on no-UDMA machine")
	}
	if proxyVal != ^uint32(0) {
		t.Fatalf("proxy load on no-UDMA machine = %#x, want open bus", proxyVal)
	}
}

func TestKernelStatsAccumulate(t *testing.T) {
	n, buf := newNode(t, machine.Config{})
	n.Kernel.Spawn("p", func(p *kernel.Proc) {
		devVA, _ := p.MapDevice(buf, true)
		va, _ := p.Alloc(4096)
		p.Store(devVA, 64)
		p.Load(addr.VProxy(va))
	})
	run(t, n)
	st := n.Kernel.Stats()
	if st.PageFaults == 0 || st.ProxyFaults == 0 || st.Syscalls == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
