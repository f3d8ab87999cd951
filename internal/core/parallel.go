package core

import "sync"

// run executes the task list on a pool of workers, each with its own
// scratch bitsets and partials stack. With one worker the loop runs
// inline on the calling goroutine — the serial search is literally the
// parallel search at pool size 1, which is what makes the bit-identical
// guarantee checkable rather than aspirational.
func (sh *bfShared) run(workers int) {
	if workers <= 1 {
		sh.runWorker()
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for t := 0; t < workers; t++ {
		go func() {
			defer wg.Done()
			sh.runWorker()
		}()
	}
	wg.Wait()
}
