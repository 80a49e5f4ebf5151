package snapshot

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"priview/internal/core"
)

// Store keeps a bounded, sequence-numbered history of snapshots in one
// directory: snapshot-000001.json, snapshot-000002.json, … Saving
// rotates out the oldest files beyond the retention count; loading
// walks the history newest-first, quarantines anything that fails the
// checksum, structural validation or the caller's check (renaming it to
// <name>.corrupt so it is never retried), and returns the newest
// snapshot that passes all three.
type Store struct {
	fsys FS
	dir  string
	keep int
}

const (
	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".json"
	// corruptSuffix marks quarantined files; they no longer match the
	// snapshot name shape, so listing skips them.
	corruptSuffix = ".corrupt"
)

// NewStore opens (creating if needed) a snapshot store over the real
// filesystem, retaining keep snapshots (minimum 1; default 3 when
// keep <= 0).
func NewStore(dir string, keep int) (*Store, error) {
	return NewStoreFS(OS{}, dir, keep)
}

// NewStoreFS is NewStore with an injected filesystem (used by the
// chaos tests to prove corruption handling).
func NewStoreFS(fsys FS, dir string, keep int) (*Store, error) {
	if keep <= 0 {
		keep = 3
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: creating store %s: %w", dir, err)
	}
	return &Store{fsys: fsys, dir: dir, keep: keep}, nil
}

// seqOf parses the sequence number out of a snapshot file name,
// returning -1 for names that are not snapshots.
func seqOf(name string) int {
	if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
		return -1
	}
	num := name[len(snapshotPrefix) : len(name)-len(snapshotSuffix)]
	seq, err := strconv.Atoi(num)
	if err != nil || seq < 0 {
		return -1
	}
	return seq
}

// Snapshots lists the store's snapshot files, newest (highest
// sequence) first. Quarantined and foreign files are skipped.
func (st *Store) Snapshots() ([]string, error) {
	entries, err := st.fsys.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: listing %s: %w", st.dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || seqOf(e.Name()) < 0 {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Slice(names, func(i, j int) bool { return seqOf(names[i]) > seqOf(names[j]) })
	return names, nil
}

// Save writes the synopsis as the next snapshot in the sequence and
// prunes history beyond the retention count. It returns the path of
// the new snapshot.
func (st *Store) Save(s *core.Synopsis) (string, error) {
	names, err := st.Snapshots()
	if err != nil {
		return "", err
	}
	next := 1
	if len(names) > 0 {
		next = seqOf(names[0]) + 1
	}
	path := filepath.Join(st.dir, fmt.Sprintf("%s%06d%s", snapshotPrefix, next, snapshotSuffix))
	if err := WriteFile(st.fsys, path, s); err != nil {
		return "", err
	}
	// Prune beyond retention. names is pre-save, newest first; with the
	// new file we have len(names)+1 snapshots.
	for i := st.keep - 1; i < len(names); i++ {
		//lint:ignore errdiscard retention pruning is advisory; a leftover old snapshot is harmless
		_ = st.fsys.Remove(filepath.Join(st.dir, names[i]))
	}
	return path, nil
}

// LoadResult describes a successful Source.Load: which file passed,
// and any files a store quarantined along the way.
type LoadResult struct {
	Synopsis *core.Synopsis
	// Path is the snapshot file that passed.
	Path string
	// Quarantined lists files (by new, post-rename path) that failed
	// during this load.
	Quarantined []string
	// Errs records why each quarantined file was rejected, parallel to
	// Quarantined.
	Errs []error
	// Version is the source version of what was loaded (see Source).
	Version string
}

// Check decides whether a decoded synopsis may serve: a non-nil error
// rejects it. The registry passes its release audit, so that it alone
// decides what is servable.
type Check func(*core.Synopsis) error

// Source is where a served synopsis comes from: a Store directory or one
// snapshot file. Load reads and verifies the synopsis to serve, and
// calls check on it before accepting it; Version cheaply names what
// Load would read now, so a server reloads only when it changes.
type Source interface {
	Load(check Check) (*LoadResult, error)
	Version() (string, error)
}

// Version implements Source: the newest snapshot's name. A store with
// no snapshots has no version.
func (st *Store) Version() (string, error) {
	names, err := st.Snapshots()
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("snapshot: no snapshots in %s", st.dir)
	}
	return names[0], nil
}

// Load returns the newest snapshot that passes the checksum, core's
// structural validation and check. It walks the history newest-first
// and calls check once on each snapshot that decodes; a file that fails
// any of the three is quarantined (renamed to <name>.corrupt) and the
// next-newest is tried. It fails only when no snapshot passes.
func (st *Store) Load(check Check) (*LoadResult, error) {
	names, err := st.Snapshots()
	if err != nil {
		return nil, err
	}
	res := &LoadResult{}
	for _, name := range names {
		path := filepath.Join(st.dir, name)
		syn, err := ReadFileFS(st.fsys, path)
		if err == nil {
			if err = check(syn); err == nil {
				res.Synopsis, res.Path, res.Version = syn, path, name
				return res, nil
			}
		}
		quarantined := path + corruptSuffix
		if rerr := st.fsys.Rename(path, quarantined); rerr != nil {
			// Quarantine is best-effort: if even the rename fails the
			// file simply stays in place and will fail again next time.
			quarantined = path
		}
		res.Quarantined = append(res.Quarantined, quarantined)
		res.Errs = append(res.Errs, fmt.Errorf("%s: %w", name, err))
	}
	if len(res.Errs) > 0 {
		return nil, fmt.Errorf("snapshot: no verifiable snapshot in %s (%d rejected; newest: %w)",
			st.dir, len(res.Errs), res.Errs[0])
	}
	return nil, fmt.Errorf("snapshot: no snapshots in %s", st.dir)
}
