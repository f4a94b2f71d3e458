//! A serialized archive together with the view over it — what
//! [`NeaTSCompressed`](crate::NeaTSCompressed) and
//! [`NeaTSLossy`](crate::NeaTSLossy) are.
//!
//! This is the one place the crate uses `unsafe` (the crate root denies it
//! everywhere else). An [`OwnedArchive`] must
//! hold both the `Arc<[u8]>` that owns the frame bytes *and* an
//! [`ArchiveView`] that borrows from those bytes — a self-referential pair
//! Rust's lifetimes can't express directly (the same pair, for the same
//! reason, as the store's `SegmentView`). The view is transmuted to
//! `'static` internally and **never exposed at that lifetime**:
//! [`OwnedArchive::view`] reborrows it at the lifetime of `&self`, so
//! callers cannot outlive the buffer.

use crate::view::ArchiveView;
use std::sync::Arc;
use succinct::WireError;

/// Frame bytes plus the view parsed from them once.
#[derive(Clone, Debug)]
pub(crate) struct OwnedArchive {
    /// Owns the bytes `view` borrows. Never mutated (`Arc<[u8]>` contents
    /// are immutable), and an `Arc` rather than a `Box` so that moving or
    /// cloning this struct asserts nothing about unique access to them.
    frame: Arc<[u8]>,
    /// SAFETY invariant: borrows from `frame`'s heap allocation, which is
    /// stable (moving the `Arc` does not move the bytes) and outlives this
    /// struct and every clone of it. Only ever reborrowed at `&self`'s
    /// lifetime.
    view: ArchiveView<'static>,
}

impl OwnedArchive {
    /// Holds a frame the encoder just produced: parsed, not verified —
    /// nothing in it is untrusted.
    pub(crate) fn from_encoder(frame: Vec<u8>) -> Self {
        Self::hold(frame.into(), false).expect("the encoder's own frame parses")
    }

    /// Copies untrusted bytes and opens the copy ([`ArchiveView::open`]:
    /// parse, then verify). The copy is the only allocation.
    pub(crate) fn open(data: &[u8]) -> Result<Self, WireError> {
        Self::hold(data.into(), true)
    }

    fn hold(frame: Arc<[u8]>, verify: bool) -> Result<Self, WireError> {
        let view = ArchiveView::parse(&frame)?;
        if verify {
            view.verify()?;
        }
        // SAFETY: `view` borrows from `frame`'s heap allocation. The `Arc`
        // stored alongside it keeps that allocation alive for the lifetime
        // of the returned struct (and of its clones, which clone the `Arc`
        // too), the bytes are never mutated, and `Self::view` reborrows at
        // `&self`'s lifetime, so no `'static` reference ever escapes.
        let view: ArchiveView<'static> = unsafe { std::mem::transmute(view) };
        Ok(Self { frame, view })
    }

    /// The view, reborrowed at `&self`'s lifetime (`ArchiveView` is
    /// covariant in its lifetime parameter).
    #[inline]
    pub(crate) fn view<'s>(&'s self) -> &'s ArchiveView<'s> {
        &self.view
    }

    /// The serialized frame.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.frame
    }
}
