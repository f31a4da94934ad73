package dense

import (
	"fmt"
	"strconv"
	"sync"
)

// Partition selects the matrix partitioning scheme — the "type of
// partitioning" decision variable of the paper's Fig 4 configurations.
type Partition int

const (
	// PartitionContiguous assigns each thread one contiguous block of rows
	// (the scheme drawn in Fig 3).
	PartitionContiguous Partition = iota
	// PartitionCyclic deals rows out round-robin across threads; the same
	// amount of work per thread with a different locality pattern.
	PartitionCyclic
)

// String names the partition scheme.
func (p Partition) String() string {
	switch p {
	case PartitionContiguous:
		return "contiguous"
	case PartitionCyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("Partition(%d)", int(p))
	}
}

// Config is an application configuration in the paper's sense: the number
// of threadgroups p, the number of threads t per group, and the partition
// type. All configurations with the same matrix size solve the same
// workload with the workload divided equally among the p·t threads.
type Config struct {
	Groups          int
	ThreadsPerGroup int
	Partition       Partition
}

// Threads returns the total thread count p·t.
func (c Config) Threads() int { return c.Groups * c.ThreadsPerGroup }

// Validate checks the configuration against a matrix dimension.
func (c Config) Validate(n int) error {
	if c.Groups < 1 || c.ThreadsPerGroup < 1 {
		return fmt.Errorf("dense: config %+v: groups and threads must be >= 1", c)
	}
	if c.Threads() > n {
		return fmt.Errorf("dense: config %+v: %d threads exceed %d rows", c, c.Threads(), n)
	}
	return nil
}

// String renders the configuration as (partition, p, t).
func (c Config) String() string {
	return "(" + c.Partition.String() + ", p=" + strconv.Itoa(c.Groups) + ", t=" + strconv.Itoa(c.ThreadsPerGroup) + ")"
}

// Assignment is the set of C rows one thread owns.
type Assignment struct {
	// Group and Thread identify the owner (0-based).
	Group, Thread int
	// Ranges is a list of half-open row intervals [lo, hi).
	Ranges [][2]int
	// RowCount is the total number of rows across Ranges.
	RowCount int
}

// Decompose partitions the n rows of A and C among the configuration's
// threads following Fig 3: the matrix is first split horizontally among
// the p threadgroups, then each group's share among its t threads; matrix
// B is shared. Row counts across threads differ by at most one, so the
// workload is distributed equally (the precondition of the weak-EP
// definition).
func Decompose(n int, cfg Config) ([]Assignment, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	threads := cfg.Threads()
	out := make([]Assignment, 0, threads)
	switch cfg.Partition {
	case PartitionContiguous:
		// Split [0,n) into p group blocks, then each into t thread blocks,
		// keeping every block within one row of n/threads.
		for g := 0; g < cfg.Groups; g++ {
			gLo := g * n / cfg.Groups
			gHi := (g + 1) * n / cfg.Groups
			gn := gHi - gLo
			for th := 0; th < cfg.ThreadsPerGroup; th++ {
				lo := gLo + th*gn/cfg.ThreadsPerGroup
				hi := gLo + (th+1)*gn/cfg.ThreadsPerGroup
				a := Assignment{Group: g, Thread: th, RowCount: hi - lo}
				if hi > lo {
					a.Ranges = [][2]int{{lo, hi}}
				}
				out = append(out, a)
			}
		}
	case PartitionCyclic:
		// Row i goes to global thread i mod threads; each thread's rows
		// are singleton ranges merged where adjacent.
		for g := 0; g < cfg.Groups; g++ {
			for th := 0; th < cfg.ThreadsPerGroup; th++ {
				global := g*cfg.ThreadsPerGroup + th
				a := Assignment{Group: g, Thread: th}
				for row := global; row < n; row += threads {
					a.Ranges = append(a.Ranges, [2]int{row, row + 1})
					a.RowCount++
				}
				out = append(out, a)
			}
		}
	default:
		return nil, fmt.Errorf("dense: unknown partition %d", int(cfg.Partition))
	}
	return out, nil
}

// RowCounts returns only the per-thread row counts of Decompose, in the
// same group-major thread order, without materializing the row ranges —
// for callers like the machine model's flop accounting that never touch
// matrix data. For the cyclic partition the full decomposition holds one
// singleton range per row, so this path is O(threads) instead of O(n) in
// both time and memory. It validates exactly like Decompose.
func RowCounts(n int, cfg Config) ([]int, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	threads := cfg.Threads()
	out := make([]int, 0, threads)
	switch cfg.Partition {
	case PartitionContiguous:
		for g := 0; g < cfg.Groups; g++ {
			gLo := g * n / cfg.Groups
			gHi := (g + 1) * n / cfg.Groups
			gn := gHi - gLo
			for th := 0; th < cfg.ThreadsPerGroup; th++ {
				lo := gLo + th*gn/cfg.ThreadsPerGroup
				hi := gLo + (th+1)*gn/cfg.ThreadsPerGroup
				out = append(out, hi-lo)
			}
		}
	case PartitionCyclic:
		// Global thread k owns rows k, k+threads, ... below n.
		for k := 0; k < threads; k++ {
			count := 0
			if k < n {
				count = (n-1-k)/threads + 1
			}
			out = append(out, count)
		}
	default:
		return nil, fmt.Errorf("dense: unknown partition %d", int(cfg.Partition))
	}
	return out, nil
}

// MaxImbalance returns the difference between the largest and smallest
// per-thread row counts of a decomposition — 0 or 1 for a load-balanced
// configuration.
func MaxImbalance(as []Assignment) int {
	if len(as) == 0 {
		return 0
	}
	lo, hi := as[0].RowCount, as[0].RowCount
	for _, a := range as[1:] {
		if a.RowCount < lo {
			lo = a.RowCount
		}
		if a.RowCount > hi {
			hi = a.RowCount
		}
	}
	return hi - lo
}

// ParallelGemm computes C = alpha·A·B + beta·C using the configuration's
// p·t independent worker goroutines, each running the blocked kernel over
// its own row assignment. There is no communication between threads —
// matching the application design the weak-EP definition requires.
func ParallelGemm(cfg Config, v Variant, alpha float64, a, b *Matrix, beta float64, c *Matrix) error {
	if err := checkGemmShapes(a, b, c); err != nil {
		return err
	}
	assigns, err := Decompose(a.Rows, cfg)
	if err != nil {
		return err
	}
	errs := make([]error, len(assigns))
	var wg sync.WaitGroup
	for i, as := range assigns {
		wg.Add(1)
		go func(i int, as Assignment) {
			defer wg.Done()
			for _, r := range as.Ranges {
				if err := GemmBlocked(v, alpha, a, b, beta, c, r[0], r[1]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, as)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
