package run

// FreeTables returns the number of recycled table sets waiting for a
// recorder.
func FreeTables() int { return len(freeTables) }

// DrainFreeTables empties the free list, so that the next recorder
// records into fresh tables.
func DrainFreeTables() {
	for {
		select {
		case <-freeTables:
		default:
			return
		}
	}
}
