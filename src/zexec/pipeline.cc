#include "zexec/pipeline.h"

#include "support/log.h"
#include "support/metrics.h"
#include "support/panic.h"
#include "zexec/ckpt_store.h"
#include "zexec/nodes.h"
#include "zexec/snapshot.h"
#include "zexec/stepper.h"
#include "zopt/autolut.h"

namespace ziria {

namespace {

size_t
widthOf(const TypePtr& t)
{
    return t ? t->byteWidth() : 0;
}

/** Look through an instrumentation shim (identity when not traced). */
ExecNode*
unwrapped(ExecNode* n)
{
    if (auto* t = dynamic_cast<TracedNode*>(n))
        return t->inner();
    return n;
}

/** Strip the shim, marking its metrics entry as coalesced away. */
NodePtr
stripTrace(NodePtr n)
{
    if (auto* t = dynamic_cast<TracedNode*>(n.get()))
        return t->takeInner();
    return n;
}

/** Extract map stages when @p n is a map or an already-coalesced chain. */
std::optional<std::vector<MapStage>>
mapStagesOf(NodePtr& n)
{
    if (auto* m = dynamic_cast<MapNode*>(n.get())) {
        std::vector<MapStage> out;
        out.push_back(m->takeStage());
        return out;
    }
    if (auto* c = dynamic_cast<MapChainNode*>(n.get()))
        return c->takeStages();
    return std::nullopt;
}

} // namespace

NodePtr
buildNode(const CompPtr& c, ExprCompiler& ec, const BuildOptions& opt,
          BuildStats* stats, const std::string& path)
{
    if (stats)
        ++stats->nodes;

    NodePtr node;
    switch (c->kind()) {
      case CompKind::Take: {
        const auto& t = static_cast<const TakeComp&>(*c);
        node = std::make_unique<TakeNode>(t.valType()->byteWidth());
        break;
      }
      case CompKind::TakeMany: {
        const auto& t = static_cast<const TakeManyComp&>(*c);
        node = std::make_unique<TakeManyNode>(t.elemType()->byteWidth(),
                                              t.count());
        break;
      }
      case CompKind::Emit: {
        const auto& e = static_cast<const EmitComp&>(*c);
        node = std::make_unique<EmitNode>(ec.compileInto(e.expr()),
                                          e.expr()->type()->byteWidth());
        break;
      }
      case CompKind::Emits: {
        const auto& e = static_cast<const EmitsComp&>(*c);
        const TypePtr& at = e.expr()->type();
        node = std::make_unique<EmitsNode>(ec.compileInto(e.expr()),
                                           at->elem()->byteWidth(),
                                           at->len());
        break;
      }
      case CompKind::Return: {
        const auto& r = static_cast<const ReturnComp&>(*c);
        Action body =
            r.stmts().empty() ? Action{} : ec.compileStmts(r.stmts());
        EvalInto ret;
        size_t cw = 0;
        if (r.ret()) {
            ret = ec.compileInto(r.ret());
            cw = r.ret()->type()->byteWidth();
        }
        node = std::make_unique<ReturnNode>(std::move(body),
                                            std::move(ret), cw);
        break;
      }
      case CompKind::Seq: {
        const auto& s = static_cast<const SeqComp&>(*c);
        std::vector<SeqNode::Item> items;
        items.reserve(s.items().size());
        size_t i = 0;
        for (const auto& it : s.items()) {
            SeqNode::Item item;
            item.node = buildNode(it.comp, ec, opt, stats,
                                  path + "/s" + std::to_string(i++));
            if (it.bind) {
                item.bindOff =
                    static_cast<long>(ec.layout().add(it.bind));
                item.bindWidth = it.bind->type->byteWidth();
            }
            items.push_back(std::move(item));
        }
        node = std::make_unique<SeqNode>(std::move(items));
        break;
      }
      case CompKind::Pipe: {
        const auto& p = static_cast<const PipeComp&>(*c);
        NodePtr l = buildNode(p.left(), ec, opt, stats, path + "/l");
        NodePtr r = buildNode(p.right(), ec, opt, stats, path + "/r");
        // Execution-level static scheduling: adjacent maps run back to
        // back with no interior pipe traffic.  Peek through trace shims
        // so instrumentation never changes the execution structure.
        ExecNode* lRaw = unwrapped(l.get());
        ExecNode* rRaw = unwrapped(r.get());
        bool lIsMap = dynamic_cast<MapNode*>(lRaw) != nullptr ||
                      dynamic_cast<MapChainNode*>(lRaw) != nullptr;
        bool rIsMap = dynamic_cast<MapNode*>(rRaw) != nullptr ||
                      dynamic_cast<MapChainNode*>(rRaw) != nullptr;
        if (lIsMap && rIsMap) {
            NodePtr lu = stripTrace(std::move(l));
            NodePtr ru = stripTrace(std::move(r));
            auto ls = mapStagesOf(lu);
            auto rs = mapStagesOf(ru);
            ls->insert(ls->end(), std::make_move_iterator(rs->begin()),
                       std::make_move_iterator(rs->end()));
            node = std::make_unique<MapChainNode>(std::move(*ls));
            break;
        }
        node = std::make_unique<PipeNode>(std::move(l), std::move(r));
        break;
      }
      case CompKind::If: {
        const auto& i = static_cast<const IfComp&>(*c);
        NodePtr t = buildNode(i.thenC(), ec, opt, stats, path + "/t");
        NodePtr e = i.elseC()
            ? buildNode(i.elseC(), ec, opt, stats, path + "/e")
            : nullptr;
        node = std::make_unique<IfNode>(ec.compileInt(i.cond()),
                                        std::move(t), std::move(e));
        break;
      }
      case CompKind::Repeat: {
        const auto& r = static_cast<const RepeatComp&>(*c);
        node = std::make_unique<RepeatNode>(
            buildNode(r.body(), ec, opt, stats, path + "/rep"));
        break;
      }
      case CompKind::Times: {
        const auto& t = static_cast<const TimesComp&>(*c);
        long ivOff = -1;
        TypeKind ivKind = TypeKind::Int32;
        if (t.inductionVar()) {
            ivOff = static_cast<long>(ec.layout().add(t.inductionVar()));
            ivKind = t.inductionVar()->type->kind();
        }
        node = std::make_unique<TimesNode>(
            ec.compileInt(t.count()), ivOff, ivKind,
            buildNode(t.body(), ec, opt, stats, path + "/times"));
        break;
      }
      case CompKind::While: {
        const auto& w = static_cast<const WhileComp&>(*c);
        node = std::make_unique<WhileNode>(
            ec.compileInt(w.cond()),
            buildNode(w.body(), ec, opt, stats, path + "/while"));
        break;
      }
      case CompKind::Map: {
        const auto& m = static_cast<const MapComp&>(*c);
        CompiledKernel k = ec.compileKernel(m.fun());
        std::shared_ptr<const CompiledLut> lut;
        if (opt.autoLut)
            lut = tryBuildMapLut(&m, m.fun(), k, ec, opt.lutLimits,
                                 opt.lutCache);
        if (stats) {
            ++stats->mapNodes;
            if (lut) {
                ++stats->lutsBuilt;
                stats->lutBytes += lut->tableBytes();
            }
        }
        node = std::make_unique<MapNode>(
            std::move(k), std::move(lut),
            m.fun()->params[0]->type->byteWidth(),
            m.fun()->retType->byteWidth());
        break;
      }
      case CompKind::Filter: {
        const auto& fc = static_cast<const FilterComp&>(*c);
        CompiledKernel k = ec.compileKernel(fc.pred());
        node = std::make_unique<FilterNode>(
            std::move(k), fc.pred()->params[0]->type->byteWidth());
        break;
      }
      case CompKind::LetVar: {
        const auto& l = static_cast<const LetVarComp&>(*c);
        size_t off = ec.layout().add(l.var());
        EvalInto init;
        if (l.init())
            init = ec.compileInto(l.init());
        node = std::make_unique<LetVarNode>(
            off, l.var()->type->byteWidth(), std::move(init),
            buildNode(l.body(), ec, opt, stats, path + "/let"));
        break;
      }
      case CompKind::Native: {
        const auto& n = static_cast<const NativeComp&>(*c);
        const CompType& ct = n.spec()->ctype;
        node = std::make_unique<NativeNode>(
            nativeFactory(n, ec), widthOf(ct.in), widthOf(ct.out),
            widthOf(ct.ctrl), ct.isComputer);
        break;
      }
      case CompKind::CallComp:
        panic("buildNode: unelaborated computation call");
    }

    // Normalize widths from the resolved stream signature.
    const CompType& ct = c->ctype();
    node->setInWidth(widthOf(ct.in));
    node->setOutWidth(widthOf(ct.out));
    if (ct.isComputer)
        node->setCtrlWidth(widthOf(ct.ctrl));

    if (opt.instrument && opt.metrics) {
        // A coalesced chain keeps the AST kind of the pipe that built
        // it, which is what the path already encodes.
        NodeMetrics& nm =
            opt.metrics->addNode(path, compKindName(c->kind()));
        nm.inWidth = node->inWidth();
        nm.outWidth = node->outWidth();
        node = std::make_unique<TracedNode>(std::move(node), &nm,
                                            opt.sampleShift);
    }
    return node;
}

NativeNode::Factory
nativeFactory(const NativeComp& n, ExprCompiler& ec)
{
    auto spec = n.spec();
    std::vector<std::pair<TypePtr, EvalInto>> argFns;
    for (const auto& a : n.args())
        argFns.emplace_back(a->type(), ec.compileInto(a));
    return [spec, argFns](Frame& f) {
        std::vector<Value> vals;
        vals.reserve(argFns.size());
        for (const auto& [ty, fn] : argFns) {
            Value v = Value::zeroOf(ty);
            fn(f, v.data());
            vals.push_back(std::move(v));
        }
        return spec->make(vals);
    };
}

bool
Pipeline::restoreDurable(uint64_t& consumed, uint64_t& emitted)
{
    if (!durableStore_ || !CkptStore::validKey(durableKey_))
        return false;
    std::vector<uint8_t> payload;
    if (!durableStore_->load(durableKey_, payload))
        return false;
    try {
        SnapshotInfo info = restoreSnapshot(*root_, frame_, payload);
        durableSnap_ = std::move(payload);
        durableConsumed_ = consumed = info.consumed;
        durableEmitted_ = emitted = info.emitted;
        durableResume_ = true;
        return true;
    } catch (const StateFormatError& e) {
        // A snapshot the disk store validated but the tree rejects
        // (e.g. the program changed between runs): start fresh.
        ZIRIA_LOG(Warn, "ckpt: durable restore rejected (", e.what(),
                  "); starting fresh");
        root_->reset(frame_);
        durableResume_ = false;
        return false;
    }
}

void
Pipeline::durableSave(const CkptCarry& ck)
{
    std::string err;
    if (durablePrepare_ && !durablePrepare_(&err)) {
        ZIRIA_LOG(Warn, "ckpt: durable save skipped (", err, ")");
        return;
    }
    if (!durableStore_->save(durableKey_, ck.snap, &err))
        ZIRIA_LOG(Warn, "ckpt: durable save failed (", err, ")");
}

RunStats
Pipeline::run(InputSource& src, OutputSink& sink, uint64_t max_out)
{
    // A durable store engages the checkpoint carry even without a
    // restart policy: the cadence snapshots exist to be persisted.
    const bool durable = durableStore_ && ckpt_.enabled();
    CkptCarry resume;
    if (durableResume_) {
        // restoreDurable() already rebuilt the tree; hand the counters
        // and image to the carry so the first attempt resumes.
        resume.snap = std::move(durableSnap_);
        resume.consumedAtSnap = durableConsumed_;
        resume.emittedAtSnap = durableEmitted_;
        resume.emittedDelivered = durableEmitted_;
        resume.restored = true;
        durableResume_ = false;
        durableSnap_.clear();
    }

    if (!restart_.enabled()) {
        if (!durable)
            return runAttempt(src, sink, max_out);
        RunStats st = runAttempt(src, sink, max_out, &resume);
        durableStore_->remove(durableKey_);  // clean completion
        return st;
    }

    RestartSupervisor sup(restart_);
    CkptCarry carry = std::move(resume);
    CkptCarry* ck = (ckpt_.enabled() || durable) ? &carry : nullptr;
    for (;;) {
        try {
            RunStats st = runAttempt(src, sink, max_out, ck);
            if (durable)
                durableStore_->remove(durableKey_);  // clean completion
            return st;
        } catch (const StageFailureError& e) {
            // Already structured (e.g. a nested driver rethrew); keep it.
            StageFailure f = e.failure();
            if (!sup.onFailure(f))
                throw StageFailureError(std::move(f));
        } catch (const std::exception& e) {
            // The single-threaded driver has one "stage": the whole tree.
            StageFailure f;
            f.stage = 0;
            f.path = "root";
            f.cause = FailureCause::Exception;
            f.message = e.what();
            f.inner = std::current_exception();
            metrics::Registry::global()
                .counter("ziria.stage_failures")
                .inc();
            if (!sup.onFailure(f))
                throw StageFailureError(std::move(f));
        }
        // onFailure slept out the backoff.  With a checkpoint in hand,
        // restore it and queue the post-snapshot input for replay
        // (suppressing the outputs the sink already saw); without one,
        // discard partial node state and resume from the live source.
        bool restored = false;
        if (ck && !ck->snap.empty()) {
            try {
                restoreSnapshot(*root_, frame_, ck->snap);
                // If the failure struck mid-replay (possible with async
                // causes such as stall deadlines), the journal holds
                // only the re-fed prefix — carry the un-replayed tail
                // over too, or the healed output would silently drop
                // those elements.
                ck->journal.insert(
                    ck->journal.end(),
                    ck->replay.begin() +
                        static_cast<std::ptrdiff_t>(ck->replayPos),
                    ck->replay.end());
                ck->replay = std::move(ck->journal);
                ck->replayPos = 0;
                ck->journal.clear();
                ck->suppress = ck->emittedDelivered - ck->emittedAtSnap;
                ck->restored = true;
                restored = true;
            } catch (const StateFormatError&) {
                // A snapshot we cannot restore is worse than none: fall
                // back to the plain reset path for the rest of this run.
                *ck = CkptCarry{};
                ck = nullptr;
            }
        }
        if (!restored)
            root_->reset(frame_);
        src.rearm();
        sink.rearm();
        if (spans_)
            spans_->onRestart();
    }
}

RunStats
Pipeline::runAttempt(InputSource& src, OutputSink& sink, uint64_t max_out,
                     CkptCarry* ck)
{
    metrics::Registry::global().counter("ziria.pipeline_runs").inc();
    // The same cooperative stepping loop the serving subsystem
    // multiplexes sessions with (src/zserve/session.cc) — here driven to
    // completion with a blocking source, which never reports Feed::Empty.
    Stepper stepper(*root_);
    stepper.setSpans(spans_.get());
    if (ck && ck->restored) {
        // run() already restored the tree from the last snapshot; pick
        // the counters up where the snapshot left them.
        stepper.resume(ck->consumedAtSnap, ck->emittedAtSnap);
        ck->restored = false;
    } else {
        stepper.start(frame_);
        if (ck && ck->snap.empty()) {
            // Baseline snapshot of the freshly started tree, so even a
            // failure before the first interval restores-and-replays
            // instead of falling back to reset.
            ck->snap = takeSnapshot(*root_, frame_, 0, 0);
        }
    }
    auto pull = [&](const uint8_t** p) {
        if (ck) {
            if (ck->replayPos < ck->replay.size()) {
                // Re-feed the journaled input consumed after the
                // snapshot, re-journaling it: a second failure during
                // replay must be able to replay it again.
                const uint8_t* e = ck->replay.data() + ck->replayPos;
                ck->replayPos += inWidth_;
                ck->journal.insert(ck->journal.end(), e, e + inWidth_);
                *p = e;
                return Feed::Ready;
            }
            // Quiescent point (the tree is parked on NeedInput): take
            // the cadence snapshot once the interval has elapsed — but
            // only outside replay/suppression, when the sink's position
            // matches the stepper's.
            if (ck->suppress == 0 &&
                stepper.consumed() - ck->consumedAtSnap >= ckpt_.interval) {
                ck->snap = takeSnapshot(*root_, frame_, stepper.consumed(),
                                        stepper.emitted());
                ck->consumedAtSnap = stepper.consumed();
                ck->emittedAtSnap = stepper.emitted();
                ck->journal.clear();
                ck->replay.clear();
                ck->replayPos = 0;
                if (durableStore_)
                    durableSave(*ck);
            }
            *p = src.next();
            if (!*p)
                return Feed::End;
            ck->journal.insert(ck->journal.end(), *p, *p + inWidth_);
            return Feed::Ready;
        }
        *p = src.next();
        return *p ? Feed::Ready : Feed::End;
    };
    auto push = [&](const uint8_t* elem) {
        if (ck && ck->suppress > 0) {
            // Replay regenerated an output the sink already received
            // before the failure; swallow it to keep the byte stream
            // identical to an uninterrupted run.
            --ck->suppress;
            return !(max_out && stepper.emitted() >= max_out);
        }
        sink.put(elem);
        if (ck)
            ck->emittedDelivered = stepper.emitted();
        return !(max_out && stepper.emitted() >= max_out);
    };
    StepOutcome oc = stepper.drive(frame_, pull, push);
    if (spans_)
        spans_->flush();
    RunStats st;
    st.consumed = stepper.consumed();
    st.emitted = stepper.emitted();
    if (oc == StepOutcome::Halted) {
        st.halted = true;
        const uint8_t* cp = stepper.ctrlData();
        if (cp && stepper.ctrlWidth())
            st.ctrl.assign(cp, cp + stepper.ctrlWidth());
    }
    st.metrics = metrics_.get();
    return st;
}

std::vector<uint8_t>
Pipeline::runBytes(const std::vector<uint8_t>& input, RunStats* stats)
{
    MemSource src(input, inWidth_);
    VecSink sink(outWidth_);
    RunStats st = run(src, sink);
    if (stats)
        *stats = st;
    return sink.data();
}

} // namespace ziria
