package sim

// SetEagerFeeds makes every later Feed take the event path, folding
// links included (on true), or fold where it can (on false), and
// returns the previous setting. It is the oracle switch of the fold
// differentials; a test that flips it must not run in parallel with
// one that feeds.
func SetEagerFeeds(on bool) (was bool) {
	was, eagerFeeds = eagerFeeds, on
	return was
}

// SetPooling toggles event and packet reuse (on by default). A run with
// pooling disabled is bit-identical to a pooled run — the free lists
// never change scheduling order — just slower; the pooling tests and
// the property tests use the disabled mode as their reference.
func (s *Sim) SetPooling(on bool) {
	s.noPool = !on
	s.q.SetPooling(on)
}

// SetEagerProbes makes every later InjectStream take the event path,
// sealed and folding links included (on true), or batch where it can
// (on false), and returns the previous setting. It is the oracle switch
// of the batch differentials, under the same rule as SetEagerFeeds.
func SetEagerProbes(on bool) (was bool) {
	was, eagerProbes = eagerProbes, on
	return was
}
