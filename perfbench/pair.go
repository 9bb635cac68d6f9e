package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/udmalib"
)

// udma-pair: four sender processes on node 0 share its NIC and send to
// node 1 in a closed loop — each issues its next udmalib.Send only
// after the previous one returned. Sizes are log-uniform over 64 B to
// 64 KB at random word offsets, so most large sends split at page
// boundaries. This is the paper's own path: the two-instruction
// initiation, the MMU check, the UDMA state machine, the DMA, and
// context switches with the I1 Inval between the senders.
const (
	pairSenders  = 4
	pairSends    = 4000 // per trial, all senders
	pairMinSize  = 64
	pairMaxSize  = 64 << 10
	pairSpan     = pairMaxSize/addr.PageSize + 1 // pages: 64 KB at any offset
	pairPollGap  = 20_000                        // cycles between receiver checks
	pairDoneMark = 0x600d0000
)

type pairMsg struct {
	size, srcOff, dstOff, patOff int
}

// pairPlan is the trial's whole input, derived from the seed: every
// sender's message list and the payload pattern messages are cut from.
type pairPlan struct {
	msgs    [pairSenders][]pairMsg
	pattern []byte
	bytes   uint64
}

func buildPairPlan(seed uint64, sends int) *pairPlan {
	rng := sim.NewRNG(seed)
	p := &pairPlan{pattern: make([]byte, pairMaxSize+addr.PageSize)}
	for i := 0; i < len(p.pattern); i += 8 {
		binary.LittleEndian.PutUint64(p.pattern[i:], rng.Uint64())
	}
	// Sizes are stratified: message m of the shuffled order draws from
	// the m-th of `sends` equal slices of the log-uniform distribution,
	// so every seed sends nearly the same bytes in a different order.
	order := rng.Perm(sends)
	for m := 0; m < sends; m++ {
		u := (float64(order[m]) + rng.Float64()) / float64(sends)
		size := int(pairMinSize*math.Pow(pairMaxSize/pairMinSize, u)) &^ 3
		msg := pairMsg{
			size:   size,
			srcOff: 4 * rng.Intn(addr.PageSize/4),
			dstOff: 4 * rng.Intn(addr.PageSize/4),
			patOff: 4 * rng.Intn(addr.PageSize/4),
		}
		s := m % pairSenders
		p.msgs[s] = append(p.msgs[s], msg)
		p.bytes += uint64(size)
	}
	return p
}

func (p *pairPlan) payload(m pairMsg) []byte { return p.pattern[m.patOff : m.patOff+m.size] }

// pairRun is one trial's live state. Each process writes only its own
// slots; the host reads them after the run.
type pairRun struct {
	plan     *pairPlan
	cl       *cluster.Cluster
	recvBase addr.VAddr
	lat      [pairSenders][]sim.Cycles
	polls    uint64                 // udmalib's own poll count, all senders
	errs     [pairSenders + 1]error // last slot: the receiver
}

// Node 0's NIPT: sender s owns pairSpan data entries from pairEntry(s),
// then one entry for the done-mark page all senders share.
func pairEntry(s int) uint32 { return uint32(s * (pairSpan + 1)) }

func pairClusterConfig() cluster.Config {
	return cluster.Config{
		Nodes:   2,
		Workers: 1,
		Machine: machine.Config{RAMFrames: 256, Kernel: kernel.Config{Quantum: 2000}},
		NIC:     nic.Config{NIPTPages: pairSenders * (pairSpan + 1)},
	}
}

// mapWindows spawns the receiver, pins its buffer (one region per
// sender, then the done-mark page) and maps it into node 0's NIPT.
func (r *pairRun) mapWindows() error {
	k := r.cl.Nodes[1].Kernel
	recv := k.Spawn("recv", func(p *kernel.Proc) { r.errs[pairSenders] = r.receive(p) })
	pages := pairSenders*pairSpan + 1
	base, err := recv.Alloc(pages * addr.PageSize)
	if err != nil {
		return err
	}
	pfns, err := udmalib.ExportBuffer(k, recv, base, pages)
	if err != nil {
		return err
	}
	r.recvBase = base
	for s := 0; s < pairSenders; s++ {
		window := append(append([]uint32(nil), pfns[s*pairSpan:(s+1)*pairSpan]...), pfns[pages-1])
		if err := udmalib.MapSendWindow(r.cl.NICs[0], pairEntry(s), 1, window); err != nil {
			return err
		}
	}
	return nil
}

func (r *pairRun) spawnSenders() {
	k := r.cl.Nodes[0].Kernel
	for s := 0; s < pairSenders; s++ {
		s := s
		k.Spawn(fmt.Sprintf("send%d", s), func(p *kernel.Proc) { r.errs[s] = r.send(p, s) })
	}
}

// send is sender s's closed loop. After its last message it sends a
// one-word done mark, which the NIC delivers after every earlier packet.
func (r *pairRun) send(p *kernel.Proc, s int) error {
	dev, err := udmalib.Open(p, r.cl.Dev(0), true)
	if err != nil {
		return err
	}
	src, err := p.Alloc(pairSpan * addr.PageSize)
	if err != nil {
		return err
	}
	msgs := r.plan.msgs[s]
	lat := make([]sim.Cycles, 0, len(msgs))
	for i, m := range msgs {
		va := src + addr.VAddr(m.srcOff)
		if err := p.WriteBuf(va, r.plan.payload(m)); err != nil {
			return err
		}
		t0 := p.Now()
		if err := dev.Send(va, udmalib.WindowOff(pairEntry(s), uint32(m.dstOff)), m.size); err != nil {
			return fmt.Errorf("sender %d message %d: %w", s, i, err)
		}
		lat = append(lat, p.Now()-t0)
	}
	mark := binary.LittleEndian.AppendUint32(nil, pairDoneMark|uint32(s))
	if err := p.WriteBuf(src, mark); err != nil {
		return err
	}
	if err := dev.Send(src, udmalib.WindowOff(pairEntry(s)+pairSpan, uint32(4*s)), 4); err != nil {
		return fmt.Errorf("sender %d done mark: %w", s, err)
	}
	r.lat[s] = lat
	r.polls += dev.Stats().Polls
	return nil
}

// receive polls its own memory for every sender's done mark, then
// checks that each sender's region holds that sender's last payload.
func (r *pairRun) receive(p *kernel.Proc) error {
	marks := r.recvBase + addr.VAddr(pairSenders*pairSpan*addr.PageSize)
	for s := 0; s < pairSenders; s++ {
		for {
			v, err := p.Load(marks + addr.VAddr(4*s))
			if err != nil {
				return err
			}
			if v == pairDoneMark|uint32(s) {
				break
			}
			p.Sleep(pairPollGap)
		}
	}
	for s, msgs := range r.plan.msgs {
		if len(msgs) == 0 {
			continue
		}
		last := msgs[len(msgs)-1]
		va := r.recvBase + addr.VAddr(s*pairSpan*addr.PageSize+last.dstOff)
		got, err := p.ReadBuf(va, last.size)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, r.plan.payload(last)) {
			return fmt.Errorf("receiver: sender %d's last %d-byte message arrived corrupted", s, last.size)
		}
	}
	return nil
}

// runPair runs one udma-pair trial. Set-up is the plan, cluster.New,
// the window mapping and the sender spawns; the run is cluster.Run, or
// the same lockstep loop with spans when traced.
func runPair(tc trialConfig) (*trialOut, error) {
	rec := tc.rec
	start := readMem()
	t0 := time.Now()
	r := &pairRun{}
	rec.do("setup.plan", func() { r.plan = buildPairPlan(tc.seed, tc.size(pairSends, 2*pairSenders)) })
	rec.do("setup.cluster_new", func() { r.cl = cluster.New(pairClusterConfig()) })
	defer r.cl.Shutdown()
	var err error
	rec.do("setup.map_windows", func() { err = r.mapWindows() })
	if err != nil {
		return nil, fmt.Errorf("udma-pair set-up: %w", err)
	}
	rec.do("setup.spawn", r.spawnSenders)
	setup := time.Since(t0)
	tc.heap.sample()
	if tc.manual() {
		err = drive(r.cl, sim.Forever, tc, nil, nil)
	} else {
		err = r.cl.Run(sim.Forever)
	}
	wall := time.Since(t0)
	use := readMem().since(start)
	tc.heap.sample()
	if err != nil {
		return nil, fmt.Errorf("udma-pair: %w", err)
	}
	for _, e := range r.errs {
		if e != nil {
			return nil, fmt.Errorf("udma-pair: %w", e)
		}
	}

	costs := r.cl.Nodes[0].Costs
	rx := r.cl.NICs[1].Stats()
	if want := r.plan.bytes + 4*pairSenders; rx.BytesReceived != want {
		return nil, fmt.Errorf("udma-pair: receiver got %d bytes, senders sent %d", rx.BytesReceived, want)
	}
	layer := layerCounts(r.cl)
	if uint64(layer["udmalib.polls"]) != r.polls {
		return nil, fmt.Errorf("udma-pair: controller shows %v polls, udmalib counted %d", layer["udmalib.polls"], r.polls)
	}

	h := fnv.New64a()
	var all []sim.Cycles
	for s := range r.lat {
		for _, l := range r.lat[s] {
			fmt.Fprintf(h, "%d,", l)
		}
		all = append(all, r.lat[s]...)
	}
	fmt.Fprintf(h, " now=%d/%d rx=%d/%d/%d", r.cl.Nodes[0].Clock.Now(), r.cl.Nodes[1].Clock.Now(),
		rx.PacketsReceived, rx.BytesReceived, rx.LastRecvAt)
	for _, k := range []string{"kernel.ctx_switches", "kernel.invals", "core.initiations", "udmalib.polls", "dma.transfers"} {
		fmt.Fprintf(h, " %s=%v", k, layer[k])
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	return &trialOut{
		setup:       setup,
		wall:        wall,
		mem:         use,
		attempted:   len(all),
		delivered:   len(all),
		goodputMBs:  float64(r.plan.bytes) / costs.Seconds(rx.LastRecvAt) / 1e6,
		p50us:       costs.Micros(quantile(all, 0.50)),
		p99us:       costs.Micros(quantile(all, 0.99)),
		fingerprint: h.Sum64(),
		layer:       layer,
	}, nil
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []sim.Cycles, q float64) sim.Cycles {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
