package service

import (
	"bytes"
	"encoding/json"
	"net/http"

	"overlapsim/internal/core"
	"overlapsim/internal/store"
	"overlapsim/internal/sweep"
)

// The peer cache protocol: GET/PUT one immutable result by canonical
// fingerprint. This is what store.HTTPCache speaks, so any overlapd is
// a shard of the mesh just by running. Lookups are answered from the
// replica's *local* tiers (Options.LocalCache) — never through its own
// peer tier — so a mesh of replicas pointing at each other cannot
// recurse.

// localCache resolves the cache the protocol endpoints serve.
func (s *Server) localCache() sweep.Cache {
	if s.opts.LocalCache != nil {
		return s.opts.LocalCache
	}
	return s.opts.Cache
}

func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !store.ValidFingerprint(fp) {
		writeError(w, http.StatusBadRequest, "invalid fingerprint %q", fp)
		return
	}
	res, ok := s.localCache().Get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, "no entry for %s", fp)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !store.ValidFingerprint(fp) {
		writeError(w, http.StatusBadRequest, "invalid fingerprint %q", fp)
		return
	}
	raw, ok := readBody(w, r, "cache entry")
	if !ok {
		return
	}
	var res core.Result
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&res); err != nil {
		writeError(w, http.StatusBadRequest, "decoding cache entry: %v", err)
		return
	}
	// Content addressing is the integrity check: the entry must hash to
	// the fingerprint it claims, so a confused peer (or a hostile
	// client) cannot poison the cache with mismatched results.
	key, err := res.Config.Fingerprint()
	if err != nil {
		writeError(w, http.StatusBadRequest, "fingerprinting entry: %v", err)
		return
	}
	if key != fp {
		writeError(w, http.StatusConflict, "entry hashes to %s, not %s", key, fp)
		return
	}
	if err := s.localCache().Put(fp, &res); err != nil {
		writeError(w, http.StatusInternalServerError, "storing entry: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
