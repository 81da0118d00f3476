package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cinderella"
	"cinderella/client"
	"cinderella/internal/obs"
	"cinderella/internal/server"
	"cinderella/internal/shard"
	"cinderella/internal/wire"
)

// store is what the daemon serves: the HTTP server's Store contract
// (which includes the group committer's Syncer) plus the binary wire
// server's. *cinderella.DurableTable and *shard.Sharded satisfy both.
type store interface {
	server.Store
	wire.Store
}

// stack is one store served the way cmd/cinderellad serves it with
// -bin-addr: a group committer acking the binary wire server's writes,
// on a loopback listener, with a client.Binary in front.
type stack struct {
	sp  *spec
	dir string
	st  store
	dt  *cinderella.DurableTable // nil when sharded
	sh  *shard.Sharded           // nil when single
	reg *obs.Registry

	com    *server.Committer
	wsrv   *wire.Server
	served chan error
	cl     *client.Binary

	ids    []cinderella.ID // ids[i] is the id of preloaded entity i
	frozen int
}

func (sp *spec) config(reg *obs.Registry) cinderella.Config {
	return cinderella.Config{Weight: sp.w, PartitionSizeLimit: sp.b, Obs: reg}
}

func openStore(sp *spec, dir string, reg *obs.Registry) (store, *cinderella.DurableTable, *shard.Sharded, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	if sp.shards > 1 {
		sh, err := shard.Open(dir, shard.Options{Shards: sp.shards, Config: sp.config(reg)})
		if err != nil {
			return nil, nil, nil, err
		}
		return sh, nil, sh, nil
	}
	dt, err := cinderella.OpenFile(filepath.Join(dir, "bench.wal"), sp.config(reg))
	if err != nil {
		return nil, nil, nil, err
	}
	return dt, dt, nil, nil
}

// openStack runs the timed set-up: open the store, preload through its
// public insert path, fsync, freeze the cold half (query workload
// only), and start the server. It returns once the listener accepts
// connections; the duration is setup_s.
func openStack(sp *spec, in *inputs, dir string, tr *tracer) (*stack, time.Duration, error) {
	reg := obs.New(obs.Options{})
	start := time.Now()
	st, dt, sh, err := openStore(sp, dir, reg)
	if err != nil {
		return nil, 0, fmt.Errorf("opening store: %w", err)
	}
	s := &stack{sp: sp, dir: dir, st: st, dt: dt, sh: sh, reg: reg, ids: make([]cinderella.ID, in.preload)}
	fail := func(err error) (*stack, time.Duration, error) {
		st.Close()
		return nil, 0, err
	}
	for i := range s.ids {
		if s.ids[i], err = st.Insert(in.doc(i)); err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
	}
	if err := st.Sync(); err != nil {
		return fail(fmt.Errorf("preload sync: %w", err))
	}
	if sp.name == "query" {
		if err := s.freezeColdHalf(in); err != nil {
			return fail(err)
		}
	}

	var wst wire.Store = st
	var syn server.Syncer = st
	if tr != nil {
		wst, syn = &tracedStore{store: st, tr: tr}, &tracedSyncer{Syncer: st, tr: tr}
	}
	// server.New builds its committer with the same defaults (natural
	// batching, 128 ops); the benchmark builds it directly so the traced
	// run can hand it the timed Syncer.
	s.com = server.NewCommitter(syn, 0, 0, reg)
	var ack wire.Acker = s.com
	if tr != nil {
		ack = &tracedAcker{Acker: s.com, tr: tr}
	}
	s.wsrv = wire.New(wst, ack, wire.Config{Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.com.Stop()
		return fail(fmt.Errorf("listen: %w", err))
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.wsrv.Serve(ln) }()
	setup := time.Since(start)

	s.cl, err = client.NewBinary(ln.Addr().String(), client.WithConns(2))
	if err == nil {
		err = s.cl.Ping(context.Background())
	}
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("client: %w", err)
	}
	return s, setup, nil
}

// freezeColdHalf runs one single-threaded pass of the query mix to heat
// the partitions, then freezes the half with the least heat.
func (s *stack) freezeColdHalf(in *inputs) error {
	for _, k := range in.pick[:heatPass] {
		s.st.QueryEntities(in.mix[k].attrs...)
	}
	heat := map[uint64]int64{}
	for _, h := range s.reg.HeatSnapshot() {
		heat[h.Partition] = h.Queries
	}
	states := s.dt.TierStates()
	sort.SliceStable(states, func(i, j int) bool {
		return heat[uint64(states[i].Partition)] < heat[uint64(states[j].Partition)]
	})
	for _, ts := range states[:len(states)/2] {
		ok, err := s.dt.FreezePartition(uint64(ts.Partition))
		if err != nil {
			return fmt.Errorf("freezing partition %d: %w", ts.Partition, err)
		}
		if ok {
			s.frozen++
		}
	}
	return nil
}

// close drains the server the way cinderellad does (wire drain, then
// the committer) and closes the store without a checkpoint.
func (s *stack) close() error {
	s.cl.Close()
	s.wsrv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.wsrv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	s.com.Stop()
	if cerr := s.st.Close(); err == nil && !errors.Is(cerr, cinderella.ErrClosed) {
		err = cerr
	}
	return err
}

// diskBytes sums every file under the store directory: the WALs, the
// shard manifest and the cold tier's images and manifests.
func diskBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
