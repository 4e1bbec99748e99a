package dfs

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func newFS(t *testing.T, cfg Config) *FS {
	t.Helper()
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero datanodes", func(c *Config) { c.DataNodes = 0 }},
		{"replication zero", func(c *Config) { c.Replication = 0 }},
		{"replication exceeds nodes", func(c *Config) { c.Replication = 99 }},
		{"zero block size", func(c *Config) { c.BlockSize = 0 }},
		{"zero bandwidth", func(c *Config) { c.LocalBytesPerSec = 0 }},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestCreateSplitsIntoBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 100
	fs := newFS(t, cfg)
	if err := fs.Create("/data/a", 250); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.Blocks("/data/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("%d blocks, want 3", len(blocks))
	}
	if blocks[0].Size != 100 || blocks[1].Size != 100 || blocks[2].Size != 50 {
		t.Fatalf("block sizes %d %d %d", blocks[0].Size, blocks[1].Size, blocks[2].Size)
	}
	for _, b := range blocks {
		if len(b.Replicas) != cfg.Replication {
			t.Fatalf("block %d has %d replicas", b.ID, len(b.Replicas))
		}
	}
}

func TestCreateErrors(t *testing.T) {
	fs := newFS(t, DefaultConfig())
	if err := fs.Create("/a", 0); err == nil {
		t.Fatal("created empty file")
	}
	if err := fs.Create("/a", 10); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/a", 10); err == nil {
		t.Fatal("created duplicate file")
	}
	if _, err := fs.Blocks("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Blocks missing = %v", err)
	}
}

func TestPlacementBalance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataNodes = 4
	cfg.Replication = 2
	cfg.BlockSize = 10
	fs := newFS(t, cfg)
	if err := fs.Create("/big", 10*100); err != nil { // 100 blocks
		t.Fatal(err)
	}
	blocks, err := fs.Blocks("/big")
	if err != nil {
		t.Fatal(err)
	}
	used := make([]int64, cfg.DataNodes)
	for _, b := range blocks {
		for _, n := range b.Replicas {
			used[n] += b.Size
		}
	}
	// Round-robin placement: each node stores 100*2/4 = 50 blocks of 10B.
	for n, got := range used {
		if got != 500 {
			t.Fatalf("node %d stores %d bytes, want 500", n, got)
		}
	}
}

func TestLocalityAndReadTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataNodes = 3
	cfg.Replication = 1
	cfg.BlockSize = 1000
	cfg.LocalBytesPerSec = 1000
	cfg.RemoteBytesPerSec = 500
	fs := newFS(t, cfg)
	if err := fs.Create("/f", 1000); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.Blocks("/f")
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	holder := b.Replicas[0]
	if !fs.IsLocal(b, holder) {
		t.Fatal("replica holder not local")
	}
	local := fs.ReadTime(b, holder).Seconds()
	if math.Abs(local-1.0) > 1e-12 {
		t.Fatalf("local read = %g s, want 1", local)
	}
	remoteNode := (holder + 1) % 3
	remote := fs.ReadTime(b, remoteNode).Seconds()
	if math.Abs(remote-2.0) > 1e-12 {
		t.Fatalf("remote read = %g s, want 2", remote)
	}
}

func TestComputeNodeFolding(t *testing.T) {
	// Compute node 5 with 3 datanodes folds onto datanode 2.
	cfg := DefaultConfig()
	cfg.Replication = 1
	fs := newFS(t, cfg)
	b := Block{ID: 1, Size: 10, Replicas: []int{2}}
	if !fs.IsLocal(b, 5) {
		t.Fatal("node 5 should fold to datanode 2")
	}
	if fs.IsLocal(b, 4) {
		t.Fatal("node 4 should fold to datanode 1")
	}
}

// Property: created files always have ceil(size/blockSize) blocks whose
// sizes sum to the file size, each with exactly Replication replicas.
func TestPropertyBlockInvariants(t *testing.T) {
	f := func(rawSize uint32, rawBS uint16) bool {
		size := int64(rawSize%1_000_000) + 1
		bs := int64(rawBS%10_000) + 1
		cfg := DefaultConfig()
		cfg.BlockSize = bs
		fs, err := New(cfg)
		if err != nil {
			return false
		}
		if err := fs.Create("/x", size); err != nil {
			return false
		}
		blocks, err := fs.Blocks("/x")
		if err != nil {
			return false
		}
		wantBlocks := int((size + bs - 1) / bs)
		if len(blocks) != wantBlocks {
			return false
		}
		var total int64
		for _, b := range blocks {
			if len(b.Replicas) != cfg.Replication || b.Size <= 0 || b.Size > bs {
				return false
			}
			total += b.Size
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
