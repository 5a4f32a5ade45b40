package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"snnfi/internal/core"
	"snnfi/internal/runner"
	"snnfi/internal/suite"
)

// The campaign service: the long-lived front that answers "how far
// along is this suite, and what has it already computed?" without
// training anything. A campaign is registered once (POST /campaign, a
// suite JSON) and audited forever after against the live store
// manifest — registration compiles the suite's network cells into
// content addresses exactly once; every status read is pure set
// membership against the manifest. Cells workers have already pushed
// are served back, so a dashboard (or a warm coordinator) reads
// results at store latency.

// CampaignSchema names the campaign status wire format.
const CampaignSchema = "snnfi-campaign-v1"

// networkTier is the store tier scenario cells live in (matching the
// -cache-dir layout cli.Tiers composes).
const networkTier = "network"

type campaign struct {
	ID    string          `json:"id"`
	Name  string          `json:"name"`
	cells []suite.CellRef // key set fixed at registration; presence is live
}

// campaignStatus is the GET /campaign/{id} body.
type campaignStatus struct {
	Schema   string          `json:"schema"`
	ID       string          `json:"id"`
	Name     string          `json:"name"`
	Cells    []suite.CellRef `json:"cells"`
	Present  int             `json:"present"`
	Missing  int             `json:"missing"`
	Complete bool            `json:"complete"`
}

// campaignOverrides mirrors the CLI's reduced-scale knobs; they are
// part of the campaign identity because they change every fingerprint.
type campaignOverrides struct {
	images, neurons, steps int
}

func parseOverrides(r *http.Request) (campaignOverrides, error) {
	var o campaignOverrides
	for _, f := range []struct {
		name string
		dst  *int
	}{{"images", &o.images}, {"neurons", &o.neurons}, {"steps", &o.steps}} {
		s := r.URL.Query().Get(f.name)
		if s == "" {
			continue
		}
		if _, err := fmt.Sscanf(s, "%d", f.dst); err != nil || *f.dst <= 0 {
			return o, fmt.Errorf("bad %s=%q", f.name, s)
		}
	}
	return o, nil
}

// handlePostCampaign registers a suite. The id is content-addressed
// over the suite document and the scale overrides, so re-posting the
// same campaign is idempotent and two coordinators watching the same
// suite share one id.
func (s *Server) handlePostCampaign(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("store.campaigns").Inc()
	body, err := readBody(r, 16<<20)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ov, err := parseOverrides(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	su, err := suite.Decode(bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	run := &suite.Runner{
		Suite:   su,
		DataDir: s.DataDir,
		Images:  ov.images,
		Neurons: ov.neurons,
		Steps:   ov.steps,
	}
	cells, err := run.AuditCells(func(string) bool { return false })
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id := runner.KeyOf("campaign", string(body), ov.images, ov.neurons, ov.steps)
	c := &campaign{ID: id, Name: su.Name, cells: cells}
	s.mu.Lock()
	s.campaigns[id] = c
	s.mu.Unlock()
	writeJSON(w, map[string]any{"id": id, "name": su.Name, "cells": len(cells)})
}

func (s *Server) campaign(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

// status re-audits the campaign's fixed key set against the live
// network-tier manifest.
func (s *Server) status(c *campaign) (*campaignStatus, error) {
	t, err := s.tier(networkTier)
	if err != nil {
		return nil, err
	}
	keys, err := t.Manifest()
	if err != nil {
		return nil, err
	}
	held := core.HeldSet(keys)
	st := &campaignStatus{
		Schema: CampaignSchema,
		ID:     c.ID,
		Name:   c.Name,
		Cells:  make([]suite.CellRef, len(c.cells)),
	}
	for i, cell := range c.cells {
		cell.Present = held(cell.Key)
		if cell.Present {
			st.Present++
		} else {
			st.Missing++
		}
		st.Cells[i] = cell
	}
	st.Complete = st.Missing == 0
	return st, nil
}

func (s *Server) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		http.NotFound(w, r)
		return
	}
	st, err := s.status(c)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, st)
}

// handleCampaignCells serves the cells already in the store: every
// present cell with its payload (a core.Result: accuracy and total
// spikes), in audit order. The baseline is its own cell (entry ""),
// against which a reader scores the others. Missing cells are simply
// absent — the reader compares against /campaign/{id} to see what is
// still cooking.
func (s *Server) handleCampaignCells(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		http.NotFound(w, r)
		return
	}
	t, err := s.tier(networkTier)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	type cellOut struct {
		Entry  string          `json:"entry"`
		Desc   string          `json:"desc"`
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	out := make([]cellOut, 0, len(c.cells))
	for _, cell := range c.cells {
		raw, ok := t.Get(cell.Key)
		if !ok {
			continue
		}
		out = append(out, cellOut{Entry: cell.Entry, Desc: cell.Desc, Key: cell.Key, Result: raw})
	}
	writeJSON(w, out)
}
