package experiments

import "fmt"

// Prove is the one determinism proof: it runs run at each worker count
// in turn, then once more at the first, and requires every run's key to
// equal the first run's. It returns the first run's result, and an
// error naming the first run that failed or whose key differs.
func Prove[R any, K comparable](run func(workers int) (R, error), key func(R) K, workers ...int) (R, error) {
	base, err := run(workers[0])
	if err != nil {
		return base, fmt.Errorf("workers %d: %w", workers[0], err)
	}
	want := key(base)
	for i := 1; i <= len(workers); i++ {
		w := workers[i%len(workers)]
		name := fmt.Sprintf("workers %d", w)
		if i == len(workers) {
			name = "rerun at " + name
		}
		r, err := run(w)
		if err != nil {
			return base, fmt.Errorf("%s: %w", name, err)
		}
		if got := key(r); got != want {
			return base, fmt.Errorf("%s diverged from workers %d: %v vs %v", name, workers[0], got, want)
		}
	}
	return base, nil
}

// prove runs Prove and records its verdict as the named check; a
// passing check's detail is the reproduced key, so BENCH_udma.json
// keeps it.
func prove[R any](res *Result, name string, run func(workers int) (R, error), key func(R) uint64, workers ...int) {
	r, err := Prove(run, key, workers...)
	if err != nil {
		res.check(name, false, "%v", err)
		return
	}
	res.check(name, true, "%016x", key(r))
}
