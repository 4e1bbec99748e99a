// Package dfs simulates the HDFS layer the paper's jobs read their input
// from (§2.4): a namenode mapping files to fixed-size blocks, datanodes
// holding replicated blocks, and a locality-aware read cost model.
//
// The dataflow engine maps one input partition to one block; a dropped
// task never fetches its block, which is where the "early drop saves the
// overhead of fetching data" effect (§3.1) comes from.
package dfs

import (
	"errors"
	"fmt"
	"sort"

	"dias/internal/simtime"
)

// Default transfer rates. Reads of a local replica stream from disk; remote
// reads cross the 10G network (paper testbed) and cost slightly more.
const (
	// DefaultBlockSize is the HDFS-style 128 MiB block size, in bytes.
	DefaultBlockSize = 128 << 20
	// DefaultLocalBytesPerSec is the local-read bandwidth (bytes/s).
	DefaultLocalBytesPerSec = 400e6
	// DefaultRemoteBytesPerSec is the remote-read bandwidth (bytes/s).
	DefaultRemoteBytesPerSec = 250e6
	// DefaultWANBytesPerSec is the cross-cluster bandwidth (bytes/s) for
	// blocks of remote files (CreateRemote): data homed in another
	// cluster's dfs and fetched over the wide-area link.
	DefaultWANBytesPerSec = 50e6
)

// ErrNotFound is returned when a path does not exist.
var ErrNotFound = errors.New("dfs: file not found")

// BlockID identifies a block cluster-wide.
type BlockID uint64

// Block is one replicated chunk of a file.
type Block struct {
	ID       BlockID
	Size     int64 // bytes
	Replicas []int // datanode indices holding a copy
	// Remote marks a block whose data lives in another cluster's dfs
	// (see CreateRemote): it has no local replicas and every read crosses
	// the WAN at Config.WANBytesPerSec.
	Remote bool
}

// Config describes a DFS deployment.
type Config struct {
	DataNodes   int
	Replication int
	BlockSize   int64
	// LocalBytesPerSec / RemoteBytesPerSec drive ReadTime.
	LocalBytesPerSec  float64
	RemoteBytesPerSec float64
	// WANBytesPerSec prices reads of remote files (CreateRemote), whose
	// data must cross the inter-cluster link; zero means
	// DefaultWANBytesPerSec.
	WANBytesPerSec float64
}

// DefaultConfig mirrors the paper's deployment: HDFS with three datanodes
// and default replication 3 (every datanode holds every block).
func DefaultConfig() Config {
	return Config{
		DataNodes:         3,
		Replication:       3,
		BlockSize:         DefaultBlockSize,
		LocalBytesPerSec:  DefaultLocalBytesPerSec,
		RemoteBytesPerSec: DefaultRemoteBytesPerSec,
		WANBytesPerSec:    DefaultWANBytesPerSec,
	}
}

type file struct {
	blocks []Block
	size   int64
}

// FS is a simulated distributed file system. It is single-threaded like
// the simulation driving it.
type FS struct {
	cfg     Config
	files   map[string]*file
	nextID  BlockID
	placeAt int // round-robin cursor for replica placement
}

// New builds an empty file system.
func New(cfg Config) (*FS, error) {
	switch {
	case cfg.DataNodes <= 0:
		return nil, fmt.Errorf("dfs: %d datanodes", cfg.DataNodes)
	case cfg.Replication <= 0 || cfg.Replication > cfg.DataNodes:
		return nil, fmt.Errorf("dfs: replication %d with %d datanodes", cfg.Replication, cfg.DataNodes)
	case cfg.BlockSize <= 0:
		return nil, fmt.Errorf("dfs: block size %d", cfg.BlockSize)
	case cfg.LocalBytesPerSec <= 0 || cfg.RemoteBytesPerSec <= 0:
		return nil, fmt.Errorf("dfs: bandwidths %g/%g", cfg.LocalBytesPerSec, cfg.RemoteBytesPerSec)
	case cfg.WANBytesPerSec < 0:
		return nil, fmt.Errorf("dfs: WAN bandwidth %g", cfg.WANBytesPerSec)
	}
	if cfg.WANBytesPerSec == 0 {
		cfg.WANBytesPerSec = DefaultWANBytesPerSec
	}
	return &FS{
		cfg:   cfg,
		files: make(map[string]*file),
	}, nil
}

// Config returns the deployment configuration.
func (fs *FS) Config() Config { return fs.cfg }

// create registers a file of the given logical size, splitting it into
// blocks. Local files get Replication replicas placed round-robin across
// datanodes; remote files get bare WAN blocks. kind labels error messages.
func (fs *FS) create(kind, path string, size int64, remote bool) error {
	if size <= 0 {
		return fmt.Errorf("dfs: %s %q with size %d", kind, path, size)
	}
	if _, ok := fs.files[path]; ok {
		return fmt.Errorf("dfs: %s %q: file exists", kind, path)
	}
	f := &file{size: size}
	for off := int64(0); off < size; off += fs.cfg.BlockSize {
		bs := fs.cfg.BlockSize
		if rem := size - off; rem < bs {
			bs = rem
		}
		fs.nextID++
		b := Block{ID: fs.nextID, Size: bs, Remote: remote}
		if !remote {
			for r := 0; r < fs.cfg.Replication; r++ {
				node := (fs.placeAt + r) % fs.cfg.DataNodes
				b.Replicas = append(b.Replicas, node)
			}
			fs.placeAt = (fs.placeAt + 1) % fs.cfg.DataNodes
			sort.Ints(b.Replicas)
		}
		f.blocks = append(f.blocks, b)
	}
	fs.files[path] = f
	return nil
}

// Create writes a file of the given logical size, splitting it into blocks
// and placing replicas round-robin across datanodes. It fails if the path
// already exists.
func (fs *FS) Create(path string, size int64) error {
	return fs.create("create", path, size, false)
}

// CreateRemote registers a file whose data lives in another cluster's dfs:
// it is split into blocks like Create, but the blocks carry no local
// replicas and every read crosses the WAN at Config.WANBytesPerSec. This is
// how a federation prices routing a job off its data-home cluster — the
// remote engine still sees the file (block list, per-task fetch costs), it
// just pays inter-cluster bandwidth for each executed stage-0 task, while
// dropped tasks skip the fetch as usual.
func (fs *FS) CreateRemote(path string, size int64) error {
	return fs.create("create remote", path, size, true)
}

// Size returns the logical size of a file.
func (fs *FS) Size(path string) (int64, error) {
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("size %q: %w", path, ErrNotFound)
	}
	return f.size, nil
}

// Blocks returns the block list of a file, in order. The slice is the
// file's own: blocks never change once the file is created, so callers
// share it without a copy and must treat it, and every Block's Replicas,
// as read-only. Its capacity is clipped, so an append copies.
func (fs *FS) Blocks(path string) ([]Block, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("blocks %q: %w", path, ErrNotFound)
	}
	return f.blocks[:len(f.blocks):len(f.blocks)], nil
}

// IsLocal reports whether reader (a datanode index; compute nodes are
// co-located with datanodes modulo the datanode count, as in the paper's
// testbed where workers and datanodes share machines) holds a replica of b.
func (fs *FS) IsLocal(b Block, readerNode int) bool {
	if b.Remote {
		return false
	}
	dn := readerNode % fs.cfg.DataNodes
	for _, r := range b.Replicas {
		if r == dn {
			return true
		}
	}
	return false
}

// ReadTime returns the virtual time needed to fetch block b from the
// perspective of a reader on the given compute node: local-disk rate when
// the reader co-hosts a replica, network rate otherwise, and WAN rate when
// the block belongs to a remote file (another cluster's data).
func (fs *FS) ReadTime(b Block, readerNode int) simtime.Duration {
	bw := fs.cfg.RemoteBytesPerSec
	switch {
	case b.Remote:
		bw = fs.cfg.WANBytesPerSec
	case fs.IsLocal(b, readerNode):
		bw = fs.cfg.LocalBytesPerSec
	}
	return simtime.Duration(float64(b.Size) / bw)
}
